import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from mobsim import graphs, synth


@pytest.fixture(scope="session")
def small_synth():
    """A 16-location, 30-user-day synthetic dataset with sticky dynamics."""
    return synth.synth_generate(synth.SynthConfig(
        n_locations=16, users=6, days=5, stay_prob=0.5, seed=101))


@pytest.fixture(scope="session")
def small_graphs(small_synth):
    ds = small_synth
    profiles = graphs.visit_profile_matrix(ds.trajectories, ds.n_locations)
    return {
        "sdg": graphs.build_sdg(ds.locations, k=5),
        "ttg": graphs.build_ttg(ds.trajectories.ids, ds.n_locations),
        "stg": graphs.build_stg(profiles, k=5),
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
