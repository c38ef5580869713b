"""The synthetic scene's substreams: numpy's seeding and PCG64, computed for many indices at once.

``synthetic._seed_states`` computes ``SeedSequence((seed, k))``'s seed words
for a whole column of indices, and ``synthetic._substreams`` hands them to
numpy's PCG64. ``synthetic._pcg_states`` and ``synthetic._pcg_random`` seed
and step numpy's PCG64 on uint64 columns, one per stream, for the placement
windows. All must give numpy's bits for every seed length the specs allow
and every index a scene uses.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vpcalib
from vpcalib import synthetic
from vpcalib.synthetic import MAX_VEHICLES, SceneSpec, generate_observations

# one to five 32-bit words
SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**96, 10**40]
INDICES = [0, 10**6, 2**32 - 1]


def _numpy_stream(seed, index):
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_are_numpys(seed):
    indices = INDICES + [1, 7, 2 * 333_333 + 5]
    states = synthetic._seed_states(seed, indices)
    assert states.dtype == np.uint64 and states.shape == (len(indices), 4)
    for k, state in zip(indices, states):
        expected = np.random.SeedSequence((seed, k)).generate_state(4, np.uint64)
        assert state.tolist() == expected.tolist(), (seed, k)


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_draw_as_numpys(seed):
    # uniform draws (the outliers, the tape measurements), then the noise, each from a fresh stream
    for draw in (lambda g: g.random(6), lambda g: g.standard_normal(4)):
        for k, stream in zip(INDICES, synthetic._substreams(seed, INDICES)):
            assert draw(stream).tobytes() == draw(_numpy_stream(seed, k)).tobytes()


def _column_draws(seed, indices, counts):
    state = synthetic._pcg_states(synthetic._seed_states(seed, indices))
    return [synthetic._pcg_random(state, count) for count in counts]


# one window, a longer one, and a window followed by three retries of two draws
DRAW_COUNTS = [[1], [2], [6], [6, 2, 2, 2]]


@pytest.mark.parametrize("counts", DRAW_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_column_streams_draw_as_numpys(seed, counts):
    draws = _column_draws(seed, INDICES, counts)
    for row, k in enumerate(INDICES):
        stream = _numpy_stream(seed, k)
        for count, drawn in zip(counts, draws):
            assert drawn.shape == (len(INDICES), count)
            assert drawn[row].tobytes() == stream.random(count).tobytes(), (seed, k, counts)


def test_a_one_row_column_draws_without_overflow_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in SEEDS:
            (drawn,) = _column_draws(seed, [2**32 - 1], [6])
            assert drawn[0].tobytes() == _numpy_stream(seed, 2**32 - 1).random(6).tobytes()


def test_generators_are_built_one_at_a_time():
    streams = synthetic._substreams(5, np.arange(3))
    assert iter(streams) is streams
    assert len(list(streams)) == 3


def test_seed_sequence_calls_do_not_grow_with_the_scene(monkeypatch):
    calls = []
    seed_sequence = np.random.SeedSequence

    def counted(*args, **kwargs):
        calls.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    counts = []
    for n in (50, 500):
        calls.clear()
        generate_observations(SceneSpec(seed=3, n_vehicles=n, noise_sigma_px=1.0,
                                        outlier_fraction=0.1, n_measurements=3))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_placement_builds_no_generator_per_vehicle(monkeypatch):
    calls = []
    generator = np.random.Generator

    def counted(*args, **kwargs):
        calls.append(args)
        return generator(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", counted)
    counts = []
    for n in (50, 500):
        calls.clear()
        # low tilt: many first pixels see sky, so the retry draws run too
        generate_observations(SceneSpec(seed=3, n_vehicles=n, tilt_deg=5.0, n_measurements=3))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_largest_scene_keeps_every_stream_index_apart():
    # builds the specs only: a scene this size takes seconds to generate
    spec = SceneSpec(seed=1, n_vehicles=MAX_VEHICLES)
    n = spec.n_vehicles
    assert 2 * n + (n - 1) < 10**6 and 10**6 + 1 < 2**32
    with pytest.raises(ValueError, match="n_vehicles must be at most 333333"):
        SceneSpec(seed=1, n_vehicles=MAX_VEHICLES + 1)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random costs some milliseconds to import, and synth loads it itself
    src = str(Path(vpcalib.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, vpcalib.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
