import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hsikelm.errors import DataError
from hsikelm.metrics import (
    aa,
    confusion,
    kappa,
    oa,
    write_confusion_csv,
)
from conftest import read_confusion_csv


def test_confusion_basic():
    cm = confusion([1, 2], [1, 2], 2)
    assert cm.tolist() == [[1, 0], [0, 1]]
    cm = confusion([1, 1], [2, 2], 2)
    assert cm.tolist() == [[0, 2], [0, 0]]
    cm = confusion([], [], 2)
    assert cm.tolist() == [[0, 0], [0, 0]]
    assert cm.dtype == np.int64


def test_confusion_errors():
    with pytest.raises(DataError, match="length mismatch"):
        confusion([1], [1, 2], 2)
    with pytest.raises(DataError, match="lie in"):
        confusion([1, 3], [1, 2], 2)


def test_diagonal_matrix_perfect():
    cm = np.diag([3, 5, 2])
    assert oa(cm) == 1.0
    assert aa(cm) == 1.0
    assert kappa(cm) == 1.0


def test_chance_agreement():
    cm = np.array([[1, 1], [1, 1]])
    assert oa(cm) == 0.5
    assert kappa(cm) == 0.0


def test_hand_case():
    cm = np.array([[4, 1], [2, 3]])
    assert oa(cm) == 0.7
    assert kappa(cm) == 0.4
    assert aa(cm) == 0.7


def test_degenerate_pe_one():
    cm = np.array([[7, 0], [0, 0]])
    assert oa(cm) == 1.0
    assert kappa(cm) == 1.0


def test_empty_matrix_rejected():
    cm = np.zeros((2, 2), dtype=int)
    for fn in (oa, aa, kappa):
        with pytest.raises(DataError, match="empty"):
            fn(cm)


def test_aa_skips_absent_reference_rows():
    cm = np.array([[3, 1], [0, 0]])
    assert aa(cm) == 0.75


def test_csv_round_trip(tmp_path):
    cm = confusion([1, 2, 3, 3], [1, 2, 3, 1], 3)
    path = tmp_path / "cm.csv"
    write_confusion_csv(cm, path)
    assert path.read_text().splitlines()[0] == "1,2,3"
    back = read_confusion_csv(path)
    assert np.array_equal(back, cm)


_square_counts = st.integers(2, 5).flatmap(
    lambda c: hnp.arrays(np.int64, (c, c), elements=st.integers(0, 30))
)


@settings(max_examples=40, deadline=None)
@given(counts=_square_counts, seed=st.integers(0, 999))
def test_class_permutation_invariance(counts, seed):
    assume(counts.sum() > 0)
    perm = np.random.default_rng(seed).permutation(counts.shape[0])
    permuted = counts[perm][:, perm]
    assert oa(counts) == oa(permuted)
    assert aa(counts) == aa(permuted)
    assert kappa(counts) == kappa(permuted)


@settings(max_examples=40, deadline=None)
@given(counts=_square_counts)
def test_ranges_and_kappa_bound(counts):
    assume(counts.sum() > 0)
    assert 0.0 <= oa(counts) <= 1.0
    assert 0.0 <= aa(counts) <= 1.0
    k = kappa(counts)
    assert -1.0 <= k <= 1.0
    off_diagonal = counts.sum() - np.trace(counts)
    assert (k == 1.0) == (off_diagonal == 0)
    if oa(counts) < 1.0:
        assert k <= oa(counts) + 1e-12
