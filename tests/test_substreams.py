"""A study row's block draw against numpy's own per-trial route.

`_substreams.block_draw` replays numpy's SeedSequence hash for the trial
words, `generate_state` and the Generator mappings; every block must equal,
byte for byte, the stacked `draw_coefficients(trial_rng(seed, N, t), count,
ensemble)` draws. These tests depend on numpy's stream layout only, so they
also run on the oldest numpy that pyproject.toml admits.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pchaos
from pchaos import ChaosError
from pchaos._substreams import block_draw
from pchaos.experiments import draw_coefficients, trial_rng

# 2^32 - 1 is one word; 2^32 and 2^64 + 3 are two and three, padded to the
# pool's 4 words; 2^128 + 7 is five words, so it is not padded
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 7]


def numpy_route(seed, N, trials, count, ensemble):
    return np.stack([draw_coefficients(trial_rng(seed, N, t), count, ensemble) for t in trials])


def assert_same_bytes(block, expected):
    assert block.dtype == expected.dtype == np.complex128
    assert block.shape == expected.shape
    assert block.tobytes() == expected.tobytes()


@pytest.mark.parametrize("ensemble", ["signs", "unimodular"])
@pytest.mark.parametrize("count", [1, 91, 136])
@pytest.mark.parametrize("N", [0, 16])
@pytest.mark.parametrize("seed", SEEDS)
def test_block_equals_numpys_route(seed, N, count, ensemble):
    # one draw function per row serves every chunk, the first and later ones
    draw = block_draw(seed, N, count, ensemble)
    for trials in (range(12), range(5, 9)):
        assert_same_bytes(draw(trials), numpy_route(seed, N, trials, count, ensemble))


@pytest.mark.parametrize("ensemble", ["signs", "unimodular"])
def test_trials_past_2_to_the_32_are_refused(ensemble):
    # the last one-word trials still draw numpy's substreams; trial 2^32
    # would need a second word, and truncated to 32 bits it would repeat
    # trial 0, so a range reaching it is refused
    draw = block_draw(3, 7, 91, ensemble)
    trials = range(2**32 - 2, 2**32)
    assert_same_bytes(draw(trials), numpy_route(3, 7, trials, 91, ensemble))
    for trials in (range(2**32 - 2, 2**32 + 2), range(2**32, 2**32 + 1)):
        with pytest.raises(ChaosError, match="trial indices must be below 2\\^32"):
            draw(trials)


def test_N_of_more_than_one_word():
    trials = range(3)
    for ensemble in ("signs", "unimodular"):
        block = block_draw(5, 2**32 + 5, 17, ensemble)(trials)
        assert_same_bytes(block, numpy_route(5, 2**32 + 5, trials, 17, ensemble))


def test_an_unknown_ensemble_is_refused():
    with pytest.raises(ChaosError, match="unknown ensemble 'gaussian'"):
        block_draw(0, 4, 10, "gaussian")


def test_importing_pchaos_leaves_numpy_random_unloaded():
    # numpy 2 imports numpy.random on first use, and a one-shot command that
    # draws nothing should not load it; numpy 1 loads it with numpy itself
    script = (
        "import sys, numpy; lazy = 'numpy.random' not in sys.modules; import pchaos; "
        "print(lazy, 'numpy.random' in sys.modules)"
    )
    src = str(Path(pchaos.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    lazy, loaded = proc.stdout.split()
    if lazy == "False":
        pytest.skip("this numpy imports numpy.random with numpy")
    assert loaded == "False"
