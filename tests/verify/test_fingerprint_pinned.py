"""Pinned determinism fingerprints: the behaviour contract.

Every pin in ``FINGERPRINTS.json`` is one run of a
:data:`repro.verify.fingerprint.RECIPES` recipe.  Any change to
simulation arithmetic, RNG consumption order, or protocol logic shows
up here as a digest mismatch; deliberate changes re-pin with
``PYTHONPATH=src python -m repro.verify.fingerprint >
tests/verify/FINGERPRINTS.json``.
"""

import json
import pathlib

import pytest

from repro.verify.fingerprint import RECIPES

EXPECTED = json.loads(
    pathlib.Path(__file__).with_name("FINGERPRINTS.json").read_text()
)


def test_every_recipe_system_is_pinned():
    assert {
        name: list(recipe.systems) for name, recipe in RECIPES.items()
    } == {name: list(digests) for name, digests in EXPECTED.items()}


@pytest.mark.parametrize(
    "recipe,system",
    [(name, system) for name, recipe in RECIPES.items()
     for system in recipe.systems],
)
def test_fingerprint_matches_pinned(recipe, system):
    digest = RECIPES[recipe].fingerprint(system)
    assert digest == EXPECTED[recipe][system], (
        f"determinism fingerprint changed for {recipe}/{system}; if "
        "intentional, re-pin with python -m repro.verify.fingerprint"
    )
