"""Shared fixtures: bundled models, their oracle twins, a scaling helper,
and the Hypothesis profile every property test runs under."""

import sys
from pathlib import Path

import pytest
from hypothesis import Phase, settings

sys.path.insert(0, str(Path(__file__).parent))

from maptmc import fixtures
from maptmc.model import loads_model, model_from_dict, model_to_dict

import oracle

# The explain phase only annotates a failure already found, and on a slow
# failing example it can take longer than finding and shrinking it; it
# never decides pass or fail.  Every @settings inherits this profile's
# phases and keeps its own other values.
settings.register_profile("maptmc", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("maptmc")


@pytest.fixture(scope="session")
def two_tasks():
    return fixtures.load_fixture("two_tasks.json")


@pytest.fixture(scope="session")
def staged():
    return fixtures.load_fixture("staged_cycles.json")


@pytest.fixture(scope="session")
def vehicles():
    return fixtures.load_fixture("vehicles.json")


@pytest.fixture(scope="session")
def raw_two_tasks():
    return oracle.RawModel(fixtures.fixture_path("two_tasks.json"))


@pytest.fixture(scope="session")
def raw_staged():
    return oracle.RawModel(fixtures.fixture_path("staged_cycles.json"))


@pytest.fixture(scope="session")
def raw_vehicles():
    return oracle.RawModel(fixtures.fixture_path("vehicles.json"))


def scale_timing(m, k):
    """Copy of m with every interval bound, reset period and initial clock
    multiplied by k."""
    data = model_to_dict(m)
    for agent in data["agents"]:
        agent["reset_period"] = agent["reset_period"] * k
        agent["init_clock"] = agent.get("init_clock", 0) * k
        for t in agent["transitions"]:
            t["interval"] = [t["interval"][0] * k, t["interval"][1] * k]
    return model_from_dict(data)


@pytest.fixture(scope="session")
def mutated_two_tasks(two_tasks):
    """Build a variant of the two_tasks model by editing its dict form;
    error-path tests pass a mutator that breaks one thing at a time."""

    def build(mutate):
        data = model_to_dict(two_tasks)
        mutate(data)
        import json

        return loads_model(json.dumps(data))

    return build
