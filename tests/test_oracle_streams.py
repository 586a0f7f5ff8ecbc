"""The oracle branch's per-pixel streams, computed in bulk.

Pixel i of an oracle retrieval draws from child i of
``SeedSequence(seed).spawn(pixel_count)``.  ``_spawned_states`` computes
those children's state words without spawning them, by re-deriving numpy's
SeedSequence mixing, so these tests pin it against the installed numpy: if
numpy changes its seeding, they fail instead of reports drifting silently.
"""

import math

import numpy as np
import pytest

import qhsl.retrieval
from qhsl import format_report, retrieve_image, save_dump, structured_state
from qhsl.cli import main
from qhsl.color import bloch_amplitudes
from qhsl.retrieval import (
    _chroma_expectations,
    _chroma_expectations_at,
    _estimates,
    _spawned_states,
    _zero_probability,
)
from conftest import random_image

# 2**200 + 3 and the list have more than four entropy words; None draws OS entropy
SEEDS = [pytest.param(seed, id=name) for name, seed in [
    ("0", 0), ("1", 1), ("2**32+5", 2 ** 32 + 5), ("2**64-1", 2 ** 64 - 1),
    ("2**200+3", 2 ** 200 + 3), ("None", None), ("list", [1, 2 ** 40, 3, 4, 5])]]


def spawned_states_reference(root, count):
    return np.array([child.generate_state(4, np.uint64)
                     for child in np.random.SeedSequence(root.entropy).spawn(count)])


@pytest.mark.parametrize("count", [1, 4, 16384])
@pytest.mark.parametrize("seed", SEEDS)
def test_spawned_states_match_numpy_spawn(seed, count):
    root = np.random.SeedSequence(seed)
    words = np.array(list(_spawned_states(root, count)))
    assert words.dtype == np.uint64
    assert np.array_equal(words, spawned_states_reference(root, count))


@pytest.mark.parametrize("seed", SEEDS)
def test_spawned_states_across_small_blocks(monkeypatch, seed):
    root = np.random.SeedSequence(seed)
    monkeypatch.setattr(qhsl.retrieval, "_SEED_BLOCK", 3)
    assert np.array_equal(np.array(list(_spawned_states(root, 11))),
                          spawned_states_reference(root, 11))


def structured_statistics_reference(img, mode, shots, seed, branch):
    """The oracle branch as it was before the bulk words: one spawned child per pixel."""
    assert mode == "shots" and branch == "oracle"
    kvw = np.array([_chroma_expectations(a0, a1)
                    for a0, a1 in structured_state(img).all_chroma_amplitudes()]).T
    pixel_count = kvw.shape[1]
    streams = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(pixel_count))
    zeros = [[rng.binomial(shots, p0) for p0 in row]
             for rng, row in zip(streams, _zero_probability(kvw).T.tolist())]
    return _estimates(np.array(zeros).T, shots), np.full(pixel_count, shots)


@pytest.mark.parametrize("shots", [1, 16, 1024])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_oracle_reports_match_spawned_reference(monkeypatch, n, shots):
    img = random_image(np.random.default_rng(100 + n), n, 3)
    for seed in range(20):
        report = retrieve_image(img, "shots", shots=shots, seed=seed, branch="oracle")
        with monkeypatch.context() as patch:
            patch.setattr(qhsl.retrieval, "_structured_statistics",
                          structured_statistics_reference)
            reference = retrieve_image(img, "shots", shots=shots, seed=seed, branch="oracle")
        assert report == reference
        assert format_report(report) == format_report(reference)


def test_oracle_refuses_negative_seed_as_numpy_does(tmp_path, capsys):
    img = random_image(np.random.default_rng(5), 1, 2)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        retrieve_image(img, "shots", shots=4, seed=-1, branch="oracle")
    dump = tmp_path / "img.dump"
    save_dump(dump, img)
    assert main(["retrieve", str(dump), str(tmp_path / "r.report"), "--mode", "shots",
                 "--shots", "4", "--seed", "-1", "--branch", "oracle"]) == 2
    assert capsys.readouterr().err == "qhsl retrieve: expected non-negative integer\n"


def test_fused_expectations_are_bit_identical():
    rng = np.random.default_rng(31)
    thetas = [0.0, math.pi, 0.5 * math.pi, 1e-300, math.pi - 1e-16, *rng.uniform(0, math.pi, 40)]
    phis = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 4.0, 6.0,
            *rng.uniform(0, 2 * math.pi, 40)]
    pairs = [(float(t), float(p)) for t in thetas for p in phis]
    fused = np.array([_chroma_expectations_at(t, p) for t, p in pairs])
    reference = np.array([_chroma_expectations(*bloch_amplitudes(t, p)) for t, p in pairs])
    # tobytes, not ==, so that the sign of every zero counts (the poles give zeros)
    assert fused.tobytes() == reference.tobytes()
    assert (fused == 0.0).any() and np.signbit(fused[fused == 0.0]).any()
