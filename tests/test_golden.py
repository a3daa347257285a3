"""The flows against their golden corpus, tests/golden/flows.json (see make_golden.py).

Verdicts, terminations, sample counts and error messages must match exactly, and samples
and gauges within make_golden.TOLERANCE relative; steps and rejected tries are printed, not
gated.  Every quantity's largest move is printed.
"""

import math

import pytest

import make_golden


@pytest.fixture(scope="module")
def fresh():
    """{name: (corpus entry, trajectories)} of one fresh run of the corpus's list."""
    return {name: make_golden.run(name) for name in make_golden.RUNS}


def test_the_corpus_lists_the_runs_it_stores():
    assert list(make_golden.load()) == list(make_golden.RUNS)


def test_outputs_match_the_corpus(fresh):
    moves, mismatches = make_golden.compare({name: entry for name, (entry, _) in fresh.items()},
                                            make_golden.load())
    for quantity, move in sorted(moves.items()):
        print(f"{quantity:28s} {move!r}")
    assert mismatches == []
    gated = {quantity: move for quantity, move in moves.items()
             if quantity not in make_golden.REPORTED}
    assert all(move <= make_golden.TOLERANCE for move in gated.values()), gated


def test_no_field_norm_is_left_unformed(fresh):
    # Every sample of every run, not only the stored ones: the final sample off the grid of
    # a run that checks convergence (scal:s3 to t = 10.3) and every sample of the
    # conv_tol = 0 collapse runs among them.
    trajs = [traj for _, runs in fresh.values() for traj in runs]
    assert any(traj.final.t == 10.3 for traj in trajs)
    for traj in trajs:
        assert not any(math.isnan(s.monitors.field_norm) for s in traj.samples)
