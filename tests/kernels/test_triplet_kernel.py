"""The shared triplet kernel is bitwise equal to the historical body.

``_bincount_oracle`` below keeps the historical ``coo_segmented.execute``
body verbatim; the four triplet formats' ``multiply`` were copies of it.
The kernel the formats now share must reproduce it bit for bit — signed
zeros, inf and NaN included — for unsorted and duplicate rows, empty
rows, no entries at all, float32/float64 storage and vectors, blocks of
1 to 33 columns (each column against its own single-vector oracle), and
HYB's accumulation into an existing ``out``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.formats import convert
from repro.formats.base import TripletFormat
from repro.formats.hyb import HYBFormat
from repro.kernels import coo_segmented, ell_kernel, hyb_kernel

from ..conftest import make_powerlaw_csr

# Overflowing float32 casts and inf - inf are part of what is compared.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _bincount_oracle(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    n_rows: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    # The historical coo_segmented.execute body, verbatim.
    if rows.shape != cols.shape or rows.shape != vals.shape:
        raise ValueError("COO arrays must have equal length")
    y = out if out is not None else np.zeros(n_rows, dtype=x.dtype)
    if rows.size:
        prod = vals.astype(np.float64, copy=False) * x.astype(
            np.float64, copy=False
        )[cols]
        acc = np.bincount(rows, weights=prod, minlength=n_rows)
        y += acc.astype(y.dtype, copy=False)
    return y


DTYPES = (np.float32, np.float64)
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5, 1e-300, 3e38)


def _values(draw, n: int, dtype) -> np.ndarray:
    finite = st.floats(
        allow_nan=False,
        allow_infinity=False,
        width=32 if dtype == np.float32 else 64,
    )
    pick = st.one_of(st.sampled_from(SPECIALS), finite)
    return np.array(draw(st.lists(pick, min_size=n, max_size=n)), dtype=dtype)


@st.composite
def triplet_problems(draw):
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(1, 12))
    nnz = draw(st.integers(0, 40)) if n_rows else 0
    index = st.integers(0, max(n_rows - 1, 0))
    rows = np.array(
        draw(st.lists(index, min_size=nnz, max_size=nnz)), dtype=np.int32
    )
    if draw(st.booleans()):
        rows.sort()  # the stored order of every format but TCOO
    cols = np.array(
        draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz)),
        dtype=np.int32,
    )
    vals = _values(draw, nnz, draw(st.sampled_from(DTYPES)))
    x_dtype = draw(st.sampled_from(DTYPES))
    k = draw(st.integers(1, 33))
    X = _values(draw, n_cols * k, x_dtype).reshape(n_cols, k)
    return rows, cols, vals, X, n_rows


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


@settings(max_examples=150, deadline=None)
@given(triplet_problems())
def test_single_vector_is_bitwise_the_oracle(problem):
    rows, cols, vals, X, n_rows = problem
    op = coo_segmented.prepare(rows, cols, vals, (n_rows, X.shape[0]))
    for j in range(X.shape[1]):
        x = X[:, j].copy()
        expected = _bincount_oracle(rows, cols, vals, x, n_rows)
        assert _bits(coo_segmented.apply(op, x)) == _bits(expected)
        assert _bits(
            coo_segmented.execute(rows, cols, vals, x, n_rows)
        ) == _bits(expected)


@settings(max_examples=150, deadline=None)
@given(triplet_problems())
def test_every_block_column_is_bitwise_the_oracle(problem):
    rows, cols, vals, X, n_rows = problem
    op = coo_segmented.prepare(rows, cols, vals, (n_rows, X.shape[0]))
    Y = coo_segmented.apply(op, X)
    assert Y.shape == (n_rows, X.shape[1]) and Y.dtype == X.dtype
    for j in range(X.shape[1]):
        expected = _bincount_oracle(rows, cols, vals, X[:, j], n_rows)
        assert _bits(Y[:, j].copy()) == _bits(expected)


@settings(max_examples=100, deadline=None)
@given(triplet_problems(), st.data())
def test_accumulation_into_out_is_bitwise_the_oracle(problem, data):
    rows, cols, vals, X, n_rows = problem
    x = X[:, 0].copy()
    base = _values(data.draw, n_rows, x.dtype)
    op = coo_segmented.prepare(rows, cols, vals, (n_rows, x.shape[0]))
    expected = _bincount_oracle(rows, cols, vals, x, n_rows, out=base.copy())
    got = base.copy()
    assert coo_segmented.apply(op, x, out=got) is got
    assert _bits(got) == _bits(expected)


def test_hyb_overflow_accumulates_like_the_oracle():
    ell_cols = np.array([[0, 1], [1, -1], [2, 0]], dtype=np.int32)
    ell_vals = np.array([[1.5, -0.0], [2.0, 9.0], [np.inf, 1.0]])
    coo_rows = np.array([2, 0, 2, 0], dtype=np.int32)
    coo_cols = np.array([1, 2, 0, 2], dtype=np.int32)
    coo_vals = np.array([-0.0, 1e300, 3.0, 1e300])
    x = np.array([0.5, -0.0, 4.0])
    y = hyb_kernel.execute(ell_cols, ell_vals, coo_rows, coo_cols, coo_vals, x)
    expected = _bincount_oracle(
        coo_rows, coo_cols, coo_vals, x, 3,
        out=ell_kernel.execute(ell_cols, ell_vals, x),
    )
    assert _bits(y) == _bits(expected)


def test_hyb_format_overflow_runs_the_same_kernel():
    csr = make_powerlaw_csr(n_rows=400, seed=5)
    fmt = HYBFormat.from_csr(csr, width=2)
    assert fmt.coo_nnz > 0
    X = np.random.default_rng(4).standard_normal((csr.n_cols, 3))
    X = X.astype(np.float32)
    Y = fmt.multiply_many(X)
    for j in range(X.shape[1]):
        x = X[:, j].copy()
        expected = _bincount_oracle(
            fmt.coo_rows, fmt.coo_cols, fmt.coo_vals, x, fmt.n_rows,
            out=ell_kernel.execute(fmt.ell_cols, fmt.ell_vals, x),
        )
        assert _bits(fmt.multiply(x)) == _bits(expected)
        assert _bits(Y[:, j].copy()) == _bits(expected)


def test_out_of_range_indices_rejected():
    rows = np.array([0, 3], dtype=np.int32)
    cols = np.array([0, 0], dtype=np.int32)
    with pytest.raises(ValueError, match="out of range"):
        coo_segmented.prepare(rows, cols, np.ones(2), (3, 1))
    with pytest.raises(ValueError, match="out of range"):
        coo_segmented.prepare(rows[:1], cols[:1] - 1, np.ones(1), (3, 1))


@pytest.mark.parametrize("name", ["coo", "brc", "sic", "tcoo", "bccoo"])
def test_triplet_formats_multiply_like_the_oracle(name):
    csr = make_powerlaw_csr(n_rows=400, seed=5)
    kwargs = {"candidates": (1, 4, 16)} if name == "tcoo" else {}
    fmt = convert.build_format(name, csr, **kwargs)
    assert isinstance(fmt, TripletFormat)
    assert "_triplets" not in vars(fmt)  # built lazily, not by from_csr
    X = np.random.default_rng(3).standard_normal((csr.n_cols, 5))
    X = X.astype(np.float32)
    Y = fmt.multiply_many(X)
    for j in range(X.shape[1]):
        x = X[:, j].copy()
        expected = _bincount_oracle(fmt.rows, fmt.cols, fmt.vals, x, fmt.n_rows)
        assert _bits(fmt.multiply(x)) == _bits(expected)
        assert _bits(Y[:, j].copy()) == _bits(expected)
