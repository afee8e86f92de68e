"""Projections of the exact Ehrenfest kernel.

For ``k = 2`` the count chain *is* the birth-death chain of eq. (11);
for ``k = 3`` projecting onto one urn's load is not strongly lumpable
(moves out of urn 1 depend on urn 2's load), which is why Appendix A.2
works with the full embedding.  Mirroring the urns swaps the roles of
``a`` and ``b``.
"""

import numpy as np
import pytest

from repro.markov.ehrenfest import EhrenfestProcess


def coordinate_blocks(space, coordinate: int) -> list:
    blocks: dict = {}
    for i, state in enumerate(space):
        blocks.setdefault(state[coordinate], []).append(i)
    return [blocks[value] for value in sorted(blocks)]


def block_probabilities(P: np.ndarray, partition) -> np.ndarray:
    return np.stack([P[:, block].sum(axis=1) for block in partition], axis=1)


def is_strongly_lumpable(P: np.ndarray, partition) -> bool:
    rows = block_probabilities(P, partition)
    return all(np.allclose(rows[block], rows[block[0]], atol=1e-12)
               for block in partition)


class TestCoordinateProjection:
    @pytest.mark.parametrize("m, a, b", [(6, 0.4, 0.2), (4, 0.1, 0.7),
                                         (5, 0.3, 0.3)])
    def test_k2_kernel_is_eq_11_birth_death(self, m, a, b):
        """Urn 1 gains a ball w.p. b·x₂/m and loses one w.p. a·x₁/m."""
        process = EhrenfestProcess(k=2, a=a, b=b, m=m)
        space = process.space()
        P = process.transition_matrix(space, sparse=False)
        for x1 in range(m + 1):
            row = space.index((x1, m - x1))
            up = b * (m - x1) / m
            down = a * x1 / m
            if x1 < m:
                assert P[row, space.index((x1 + 1, m - x1 - 1))] == \
                    pytest.approx(up)
            if x1 > 0:
                assert P[row, space.index((x1 - 1, m - x1 + 1))] == \
                    pytest.approx(down)
            assert P[row, row] == pytest.approx(1.0 - up - down)

    def test_k2_projection_lumpable(self):
        process = EhrenfestProcess(k=2, a=0.4, b=0.2, m=4)
        space = process.space()
        P = process.transition_matrix(space, sparse=False)
        assert is_strongly_lumpable(P, coordinate_blocks(space, 0))

    def test_k3_coordinate_projection_not_lumpable(self):
        process = EhrenfestProcess(k=3, a=0.3, b=0.2, m=3)
        space = process.space()
        P = process.transition_matrix(space, sparse=False)
        assert not is_strongly_lumpable(P, coordinate_blocks(space, 0))

    def test_lumped_stationary_consistency(self):
        """For k = 2 the lumped kernel's stationary law is the coordinate
        marginal of the full stationary law."""
        process = EhrenfestProcess(k=2, a=0.35, b=0.15, m=5)
        space = process.space()
        P = process.transition_matrix(space, sparse=False)
        partition = coordinate_blocks(space, 0)
        rows = block_probabilities(P, partition)
        lumped = np.stack([rows[block[0]] for block in partition])
        eigenvalues, eigenvectors = np.linalg.eig(lumped.T)
        pi_lumped = np.real(eigenvectors[:, np.argmax(np.real(eigenvalues))])
        pi_lumped /= pi_lumped.sum()
        pi_full = process.stationary_distribution(space)
        marginal = [pi_full[block].sum() for block in partition]
        assert np.allclose(pi_lumped, marginal, atol=1e-12)


class TestMirrorSymmetry:
    @pytest.mark.parametrize("k, m", [(2, 4), (3, 3), (4, 2)])
    def test_reversing_urns_swaps_a_and_b(self, k, m):
        forward = EhrenfestProcess(k=k, a=0.35, b=0.2, m=m)
        mirrored = EhrenfestProcess(k=k, a=0.2, b=0.35, m=m)
        space = forward.space()
        P = forward.transition_matrix(space, sparse=False)
        Q = mirrored.transition_matrix(space, sparse=False)
        flip = [space.index(tuple(reversed(state))) for state in space]
        assert np.allclose(P, Q[np.ix_(flip, flip)], atol=1e-15)
        assert np.allclose(forward.stationary_distribution(space),
                           mirrored.stationary_distribution(space)[flip])
