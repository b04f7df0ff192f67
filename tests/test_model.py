"""Structural checks for subsystems, networks and global assembly."""

import numpy as np
import pytest

from cascadepass.model import (
    CascadeNetwork,
    InvalidNetwork,
    Subsystem,
    as_matrix,
    assemble_global,
    extend_network,
    validate_network,
)
from cascadepass.protocol import run_cascade_design
from cascadepass.sample_cascades import four_stage_cascade


def scalar_subsystem(a=-1.0):
    return Subsystem(A=a, B1=1.0, B2=1.0, B3=1.0, C=1.0)


def test_as_matrix_scalar_becomes_1x1():
    M = as_matrix(3.5)
    assert M.shape == (1, 1)
    assert M[0, 0] == 3.5
    assert not M.flags.writeable


def test_as_matrix_rejects_1d_and_3d():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))


def test_subsystem_dimensions():
    sub = Subsystem(
        A=[[-9.0, 1.0], [5.0, 7.0]],
        B1=[[1.0], [1.0]],
        B2=[[1.0], [0.5]],
        B3=[[1.0], [1.0]],
        C=[[3.0, 2.0]],
    )
    assert sub.n == 2
    assert sub.m == 1
    assert sub.p == 1
    assert not sub.A.flags.writeable


def test_network_coupling_lookup():
    net = CascadeNetwork.from_blocks(
        [scalar_subsystem(), scalar_subsystem()], {(2, 1): [[0.3]]}
    )
    assert net.n_subsystems == 2
    assert net.h(2, 1)[0, 0] == 0.3
    assert net.h(1, 2) is None
    assert np.array_equal(net.h_or_zero(1, 2), np.zeros((1, 1)))


@pytest.mark.parametrize("i, j", [(1, 0), (1, -1), (0, 1), (1, 3)])
def test_h_or_zero_rejects_indices_outside_the_chain(i, j):
    net = CascadeNetwork.from_blocks(
        [scalar_subsystem(), scalar_subsystem()], {(2, 1): [[0.3]]}
    )
    with pytest.raises(IndexError):
        net.h_or_zero(i, j)


def test_validate_clean_network():
    net = CascadeNetwork.from_blocks(
        [scalar_subsystem(), scalar_subsystem()], {(2, 1): [[1.0]], (1, 1): [[0.2]]}
    )
    report = validate_network(net)
    assert report.ok
    assert str(report) == "network ok"


def test_validate_rejects_skip_coupling():
    net = CascadeNetwork.from_blocks(
        [scalar_subsystem(), scalar_subsystem(), scalar_subsystem()],
        {(1, 3): [[1.0]]},
    )
    report = validate_network(net)
    assert not report.ok
    assert any(v.code == "NonCascadeCoupling" and v.where == (1, 3) for v in report.violations)


def test_validate_rejects_dimension_mismatches():
    bad = Subsystem(A=[[1.0, 0.0], [0.0, 1.0]], B1=[[1.0]], B2=[[1.0], [1.0]],
                    B3=[[1.0], [1.0]], C=[[1.0, 0.0]])
    report = validate_network(CascadeNetwork.from_blocks([bad], {}))
    assert any(v.code == "DimensionMismatch" for v in report.violations)

    mismatched = Subsystem(A=-1.0, B1=1.0, B2=1.0, B3=[[1.0, 2.0]], C=1.0)
    report = validate_network(CascadeNetwork.from_blocks([mismatched], {}))
    assert any("B3" in v.message for v in report.violations)


def test_validate_rejects_disturbance_output_mismatch():
    bad = Subsystem(A=-1.0, B1=1.0, B2=[[1.0, 0.0]], B3=1.0, C=[[1.0]])
    report = validate_network(CascadeNetwork.from_blocks([bad], {}))
    assert any("B2" in v.message for v in report.violations)


def test_validate_rejects_nonfinite_and_bad_indices():
    sub = scalar_subsystem()
    report = validate_network(
        CascadeNetwork.from_blocks([sub], {(1, 1): [[np.nan]]})
    )
    assert any(v.code == "NonFinite" for v in report.violations)

    report = validate_network(CascadeNetwork.from_blocks([sub], {(1, 5): [[1.0]]}))
    assert any(v.code == "BadIndex" for v in report.violations)

    report = validate_network(CascadeNetwork(subsystems=()))
    assert not report.ok


@pytest.mark.parametrize("keys", [
    [(1.0, 1.0)], [(1, 1.5)], [("1", "1")], [(1, 1, 1)], [(1, 1), (1, 2, 3)],
])
def test_a_coupling_key_that_is_not_a_pair_of_integers_is_a_violation(keys):
    subs = four_stage_cascade(2).subsystems
    net = CascadeNetwork.from_blocks(subs, {key: np.ones((subs[0].p, subs[0].n)) for key in keys})
    bad = [v for v in validate_network(net).violations if v.code == "BadIndex"]
    assert [v.message for v in bad] == [f"coupling key {keys[-1]!r} is not a pair of integers"]
    with pytest.raises(InvalidNetwork, match="not a pair of integers"):
        run_cascade_design(net)


@pytest.mark.parametrize("count", [0, 5])
def test_the_four_stage_cascade_has_one_to_four_stages(count):
    with pytest.raises(ValueError, match="count must be between 1 and 4"):
        four_stage_cascade(count)


def test_validate_rejects_wrong_coupling_shape():
    net = CascadeNetwork.from_blocks(
        [scalar_subsystem(), scalar_subsystem()], {(2, 1): [[1.0, 2.0]]}
    )
    report = validate_network(net)
    assert any(v.code == "DimensionMismatch" and v.where == (2, 1) for v in report.violations)


def test_assemble_global_places_blocks():
    sub1 = Subsystem(
        A=[[-9.0, 1.0], [5.0, 7.0]],
        B1=[[1.0], [1.0]],
        B2=[[1.0], [0.5]],
        B3=[[1.0], [1.0]],
        C=[[3.0, 2.0]],
    )
    sub2 = scalar_subsystem(3.0)
    net = CascadeNetwork.from_blocks(
        [sub1, sub2], {(1, 1): [[0.5, -0.7]], (2, 1): [[1.0, -0.5]], (1, 2): [[0.1]]}
    )
    glob = assemble_global(net)
    assert glob.A.shape == (3, 3)
    assert np.array_equal(glob.A[:2, :2], sub1.A)
    assert glob.A[2, 2] == 3.0
    assert np.array_equal(glob.A[:2, 2], np.zeros(2))
    assert np.array_equal(glob.H, [[0.5, -0.7, 0.1], [1.0, -0.5, 0.0]])
    assert np.array_equal(glob.C, [[3.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    assert glob.state_sizes == (2, 1)
    assert glob.input_sizes == (1, 1)

    # v = H x reproduces the per-subsystem coupling sums.
    x = np.array([1.0, 2.0, 3.0])
    v = glob.H @ x
    assert v[0] == 0.5 * 1.0 - 0.7 * 2.0 + 0.1 * 3.0
    assert v[1] == 1.0 * 1.0 - 0.5 * 2.0


def test_assemble_global_raises_on_invalid():
    net = CascadeNetwork.from_blocks(
        [scalar_subsystem(), scalar_subsystem(), scalar_subsystem()],
        {(3, 1): [[1.0]]},
    )
    with pytest.raises(InvalidNetwork) as info:
        assemble_global(net)
    assert not info.value.report.ok


def test_extend_network_appends_without_mutation():
    net = CascadeNetwork.from_blocks([scalar_subsystem()], {(1, 1): [[0.2]]})
    grown = extend_network(net, scalar_subsystem(), {(2, 1): [[1.0]], (2, 2): None})
    assert grown.n_subsystems == 2
    assert grown.h(2, 1)[0, 0] == 1.0
    assert grown.h(2, 2) is None
    assert net.n_subsystems == 1
    assert (2, 1) not in net.couplings


def test_extend_network_shares_the_existing_coupling_blocks():
    net = CascadeNetwork.from_blocks(
        [scalar_subsystem(), scalar_subsystem()], {(1, 1): [[0.2]], (2, 1): [[0.5]]}
    )
    new = {(1, 2): [[0.3]], (3, 2): [[1.0]], (3, 3): None}
    grown = extend_network(net, scalar_subsystem(), new)
    assert all(grown.couplings[key] is block for key, block in net.couplings.items())
    rebuilt = CascadeNetwork.from_blocks(
        grown.subsystems, {(1, 1): [[0.2]], (2, 1): [[0.5]], (1, 2): [[0.3]], (3, 2): [[1.0]]}
    )
    assert grown.couplings.keys() == rebuilt.couplings.keys()
    for key, block in rebuilt.couplings.items():
        assert grown.couplings[key].h.tobytes() == block.h.tobytes()
        assert not grown.couplings[key].h.flags.writeable
