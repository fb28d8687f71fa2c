"""Shared helpers for the test suite."""

import random

import pytest

from rigideq import MultiPoly, PolyMap, PrimeField
from rigideq.poly import _ArrayPoly


# Acceptance criteria report one PASS/FAIL line each; collected here and
# printed in the terminal summary so they survive pytest's output capture.
_scoreboard: list[str] = []


def record_score(line: str):
    _scoreboard.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _scoreboard:
        terminalreporter.section("acceptance scoreboard")
        for line in _scoreboard:
            terminalreporter.write_line(line)


@pytest.fixture
def f101():
    return PrimeField(101)


@pytest.fixture
def f5():
    return PrimeField(5)


def random_poly(rng, field, nvars, max_degree, max_terms=6):
    """Random sparse polynomial with total degree <= max_degree."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        budget = rng.randrange(max_degree + 1)
        e = [0] * nvars
        for _ in range(budget):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = rng.randrange(1, field.p)
    return MultiPoly(field, nvars, terms)


def random_map(rng, field, in_arity, out_arity, max_degree, max_terms=4):
    coords = tuple(
        random_poly(rng, field, in_arity, max_degree, max_terms) for _ in range(out_arity)
    )
    return PolyMap(field, in_arity, coords, label="random")


def term_dicts_built(monkeypatch) -> list:
    """Spy on _ArrayPoly.__getattr__, which builds the terms dict of a
    polynomial born from arrays on first access: the returned list gets
    every polynomial that builds one from now on."""
    built = []
    real = _ArrayPoly.__getattr__

    def spy(self, name):
        value = real(self, name)
        built.append(self)
        return value

    monkeypatch.setattr(_ArrayPoly, "__getattr__", spy)
    return built
