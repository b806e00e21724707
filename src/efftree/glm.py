"""Linear and logistic regression for nuisance models, with a compact formula grammar.

Model specs are parsed from strings such as ``1 + A + lt(x1,0) + exp(x2) +
A:gt(x4,0) + cube(x5)``. Grammar (whitespace ignored)::

    spec    := term ("+" term)*
    term    := "1" | factor | TREAT ":" factor
    factor  := TREAT | NAME | "exp(" NAME ")" | "cube(" NAME ")"
             | "gt(" NAME "," NUMBER ")" | "lt(" NAME "," NUMBER ")"
             | "in(" NAME "," LEVEL ("," LEVEL)* ")"

``TREAT`` is the schema's treatment column name; a ``TREAT:`` prefix forms a
treatment interaction. The intercept is implicit when ``1`` is omitted.
Categorical factors expand to reference-coded dummies (first declared level
is the reference); ``in(col,L1,L2)`` is a single membership indicator.

``Design`` takes ``rows``, a row-index array: integer indices into the
dataset, in the order given, duplicates allowed, so a resampled index array
is a bootstrap replicate's rows. It gathers them once from a treatment-free
root design per (dataset, spec), at A=1, and derives their matrices at the
observed treatment and at A=0 and the difference; both fits take a
``Design``, and ``predict_mean`` one of its matrices.
Both fits share one prologue: the observed design, a column-pivoted QR that
drops rank-deficient columns deterministically instead of failing, and one
fit record. Row gathers use ``np.take``, and both fits call LAPACK
(``dgeqp3``, ``dorgqr``, ``dposv``) directly: each gives the bits of the
fancy-indexing or ``scipy.linalg`` call it replaces, without their per-call
overhead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqp3, dorgqr, dposv

from .data import Continuous, DataError, Dataset, Schema

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 50
_LINPRED_CLIP = 500.0
_SEPARATION_ETA = 30.0
_EPS = np.finfo(np.float64).eps


class FitError(RuntimeError):
    """Raised when a nuisance model cannot be fitted on the given rows."""


@dataclass(frozen=True)
class Factor:
    """A single covariate effect: raw column or a fixed transform of it."""

    transform: str  # "main" | "exp" | "cube" | "gt" | "lt" | "in"
    column: str
    threshold: float | None = None
    levels: tuple[str, ...] | None = None

    def label(self) -> str:
        if self.transform == "main":
            return self.column
        if self.transform in ("gt", "lt"):
            return f"{self.transform}({self.column},{_fmt_num(self.threshold)})"
        if self.transform == "in":
            return f"in({self.column},{','.join(self.levels)})"
        return f"{self.transform}({self.column})"


@dataclass(frozen=True)
class Term:
    """One formula term: intercept, treatment main effect, a covariate
    factor, or a treatment-by-factor interaction."""

    kind: str  # "intercept" | "treatment" | "factor" | "interaction"
    factor: Factor | None = None

    def label(self, treatment_name: str) -> str:
        if self.kind == "intercept":
            return "1"
        if self.kind == "treatment":
            return treatment_name
        if self.kind == "factor":
            return self.factor.label()
        return f"{treatment_name}:{self.factor.label()}"


@dataclass(frozen=True)
class DesignSpec:
    """Ordered term list; expands to a finite-width model matrix."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        n_intercept = sum(1 for t in self.terms if t.kind == "intercept")
        if n_intercept != 1:
            raise ValueError("spec must contain exactly one intercept")

    def to_string(self, treatment_name: str) -> str:
        return " + ".join(t.label(treatment_name) for t in self.terms)


def _fmt_num(x: float) -> str:
    return f"{x:g}"


_FUNC_RE = re.compile(r"^(exp|cube)\(([^(),]+)\)$")
_THRESH_RE = re.compile(r"^(gt|lt)\(([^(),]+),([^(),]+)\)$")
_IN_RE = re.compile(r"^in\(([^(),]+),(.+)\)$")


def _parse_factor(text: str) -> Factor:
    text = text.strip()
    m = _FUNC_RE.match(text)
    if m:
        return Factor(m.group(1), m.group(2).strip())
    m = _THRESH_RE.match(text)
    if m:
        try:
            c = float(m.group(3))
        except ValueError:
            raise ValueError(f"bad threshold in term {text!r}")
        return Factor(m.group(1), m.group(2).strip(), threshold=c)
    m = _IN_RE.match(text)
    if m:
        levels = tuple(tok.strip() for tok in m.group(2).split(","))
        if not levels or any(not lv for lv in levels):
            raise ValueError(f"bad level list in term {text!r}")
        return Factor("in", m.group(1).strip(), levels=levels)
    if not re.match(r"^[A-Za-z_][A-Za-z0-9_.]*$", text):
        raise ValueError(f"cannot parse term {text!r}")
    return Factor("main", text)


def parse_spec(text: str, treatment_name: str) -> DesignSpec:
    """Parse a formula string into a DesignSpec.

    The intercept is added automatically when not written explicitly.
    """
    terms: list[Term] = []
    saw_intercept = False
    for raw in text.split("+"):
        tok = raw.strip()
        if not tok:
            raise ValueError(f"empty term in spec {text!r}")
        if tok == "1":
            if saw_intercept:
                raise ValueError("duplicate intercept")
            saw_intercept = True
            terms.append(Term("intercept"))
        elif tok == treatment_name:
            terms.append(Term("treatment"))
        elif ":" in tok and not tok.startswith(("gt(", "lt(", "in(", "exp(", "cube(")):
            left, right = tok.split(":", 1)
            if left.strip() != treatment_name:
                raise ValueError(f"interactions must involve the treatment column: {tok!r}")
            terms.append(Term("interaction", _parse_factor(right)))
        else:
            terms.append(Term("factor", _parse_factor(tok)))
    if not saw_intercept:
        terms.insert(0, Term("intercept"))
    return DesignSpec(tuple(terms))


def check_factor(factor: Factor, schema: Schema) -> None:
    """ValueError unless the factor fits the schema: its column is a
    covariate, its transform fits that column's kind, and every ``in()``
    level is declared."""
    if factor.transform not in ("main", "exp", "cube", "gt", "lt", "in"):
        raise ValueError(f"unknown transform {factor.transform!r}")
    if factor.column not in schema.covariate_names:
        raise ValueError(f"unknown column {factor.column!r} in spec")
    kind = schema.kind_of(factor.column)
    continuous = isinstance(kind, Continuous)
    if factor.transform in ("exp", "cube", "gt", "lt") and not continuous:
        raise ValueError(f"{factor.transform}() requires a continuous column: {factor.label()}")
    if factor.transform == "in":
        if continuous:
            raise ValueError(f"in() requires a categorical or ordinal column: {factor.label()}")
        for lv in factor.levels:
            if lv not in kind.levels:
                raise ValueError(f"unknown level {lv!r} in {factor.label()}")


def _factor_columns(factor: Factor, data: Dataset) -> np.ndarray:
    """Column block (n x k) for one factor on every dataset row."""
    check_factor(factor, data.schema)
    kind = data.schema.kind_of(factor.column)
    values = data.covariates[factor.column]
    if factor.transform == "main":
        if isinstance(kind, Continuous):
            return values[:, None]
        # reference coding: first declared level is the baseline
        k = len(kind.levels)
        block = np.zeros((data.n, k - 1))
        for j in range(1, k):
            block[:, j - 1] = values == j
        return block
    if factor.transform == "exp":
        return np.exp(values)[:, None]
    if factor.transform == "cube":
        return (values**3)[:, None]
    if factor.transform == "gt":
        return (values > factor.threshold).astype(np.float64)[:, None]
    if factor.transform == "lt":
        return (values < factor.threshold).astype(np.float64)[:, None]
    codes = [kind.levels.index(lv) for lv in factor.levels]
    return np.isin(values, codes).astype(np.float64)[:, None]


def _design_blocks(data: Dataset, spec: DesignSpec) -> tuple[list[np.ndarray], list[Term]]:
    """One column block of every dataset row per term, and the term behind each column."""
    blocks = [np.ones((data.n, 1)) if t.factor is None else _factor_columns(t.factor, data)
              for t in spec.terms]
    return blocks, [t for t, block in zip(spec.terms, blocks) for _ in range(block.shape[1])]


def _root_design(data: Dataset, spec: DesignSpec) -> tuple[np.ndarray, np.ndarray]:
    """Treatment-free design of every dataset row, built once per (dataset, spec).

    Every transform works row by row, so a subgroup's design is a row slice
    of this matrix. The treatment column holds 1 and each treatment
    interaction column holds its factor; ``treated`` marks those columns,
    which a subgroup's design scales by A. Returns ``(F, treated)``,
    memoized read-only in ``data.derived``; ``check_columns`` vets it.
    """
    cached = data.derived.get(spec)
    if cached is not None:
        return cached
    blocks, owners = _design_blocks(data, spec)
    F = np.hstack(blocks)
    treated = np.array([t.kind in ("treatment", "interaction") for t in owners])
    F.setflags(write=False)
    treated.setflags(write=False)
    cached = (F, treated)
    data.derived[spec] = cached
    return cached


def check_columns(data: Dataset, spec: DesignSpec) -> None:
    """DataError naming the first column of the spec's design that is not
    finite on some dataset row, as ``exp`` can make it, or whose sum of
    squares over the rows is not, as a value near 1e308 makes it. Growth
    checks each spec in use once: every fit and split variance squares the
    columns of a subgroup, whose sums are at most these."""
    F, _ = _root_design(data, spec)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(np.einsum("ij,ij->j", F, F))
    if bad.any():
        j = int(np.argmax(bad))
        label = _design_blocks(data, spec)[1][j].label(data.schema.treatment)
        n_bad = np.count_nonzero(~np.isfinite(F[:, j]))
        if n_bad:
            raise DataError(f"design column {label!r} is not finite on {n_bad} of {data.n} rows")
        raise DataError(f"design column {label!r} is too large: its sum of squares "
                        f"over the {data.n} rows is not finite")


def check_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` as an index array; TypeError for a mask, whose length counts every row."""
    rows = np.asarray(rows)
    if rows.dtype.kind not in "iu":
        raise TypeError(f"rows must be an integer index array, not {rows.dtype}")
    return rows


class Design:
    """A subgroup's model matrices under one spec, from one gather: the
    read-only ``at_one`` (A=1, one matrix row per index). Each call of
    ``observed``, ``at_zero`` or ``difference`` derives its matrix anew."""

    def __init__(self, data: Dataset, rows: np.ndarray, spec: DesignSpec):
        rows = check_rows(rows)
        F, self.treated = _root_design(data, spec)
        self.spec = spec
        self.at_one = np.take(F, rows, axis=0)
        self.at_one.setflags(write=False)
        self.treatment = data.treatment[rows].astype(np.float64)

    def observed(self) -> np.ndarray:
        """The model matrix at each row's observed treatment: ``at_one``
        itself when no column involves A, as in a propensity design."""
        if not self.treated.any():
            return self.at_one
        Z = self.at_one.copy()
        for j in np.flatnonzero(self.treated):
            # in place, one column at a time: a boolean column mask would
            # gather the columns into a copy and scatter them back
            Z[:, j] *= self.treatment
        return Z

    def at_zero(self) -> np.ndarray:
        """The model matrix at A=0."""
        Z0 = self.at_one.copy()
        for j in np.flatnonzero(self.treated):
            Z0[:, j] *= 0.0
        return Z0

    def difference(self) -> np.ndarray:
        """Z(A=1) - Z(A=0): ``at_one`` with the columns free of A set to 0.0,
        so it is exact and keeps the sign of a -0.0 factor."""
        D = self.at_one.copy()
        D[:, ~self.treated] = 0.0
        return D


@dataclass
class ModelFit:
    """A nuisance fit: least squares (``family`` "gaussian") or logistic IRLS
    ("binomial"). ``coefficients`` is full width with zeros at the dropped
    columns; ``iterations`` counts IRLS steps and is 0 for least squares."""

    spec: DesignSpec
    family: str
    coefficients: np.ndarray
    kept: np.ndarray
    dropped: np.ndarray
    iterations: int


def _pivoted_qr(
    Z: np.ndarray, with_q: bool = False
) -> tuple[Optional[np.ndarray], np.ndarray, np.ndarray, int]:
    """Column-pivoted economic QR of Z, ``Z[:, piv] = Q R``, and its numerical
    rank: the number of |R_jj| above |R_00| * max(Z.shape) * eps. The first
    ``rank`` pivots are the kept columns; the rest are dropped. Q is None
    unless ``with_q``.

    It makes the LAPACK calls that ``scipy.linalg``'s ``qr(Z, mode="economic",
    pivoting=True)`` makes, so Q, R and the pivots are its bits: the
    finiteness check, one column-major copy of Z, and for ``dgeqp3`` and
    ``dorgqr`` the workspace size an ``lwork=-1`` query returns. The size
    decides between blocked and unblocked elimination, which round
    differently past 128 columns.
    """
    if not np.isfinite(Z).all():
        raise ValueError("array must not contain infs or NaNs")
    a = np.array(Z, order="F")
    lwork = int(dgeqp3(a, lwork=-1, overwrite_a=True)[-2][0])
    qr, jpvt, tau, _, _ = dgeqp3(a, lwork=lwork, overwrite_a=True)
    k = min(Z.shape)
    R = np.triu(qr[:k, :])
    diag = np.abs(np.diagonal(R))
    if k == 0 or diag[0] == 0.0:
        raise FitError("design matrix is identically zero")
    rank = int(np.sum(diag > diag[0] * max(Z.shape) * _EPS))
    Q = None
    if with_q:
        lwork = int(dorgqr(qr[:, :k], tau, lwork=-1, overwrite_a=True)[-2][0])
        Q = dorgqr(qr[:, :k], tau, lwork=lwork, overwrite_a=True)[0]
    return Q, R, jpvt - 1, rank


def _factored_design(design: Design, with_q: bool = False):
    """The prologue of both fits: the observed design, FitError unless it
    has at least as many rows as columns, then its ``_pivoted_qr``. Returns
    ``(Z, Q, R, piv, kept, dropped)``, the kept and dropped columns sorted;
    ``piv[:len(kept)]`` orders the kept columns as R does."""
    Z = design.observed()
    if Z.shape[0] < Z.shape[1]:
        raise FitError("insufficient data: fewer rows than design columns")
    Q, R, piv, rank = _pivoted_qr(Z, with_q)
    return Z, Q, R, piv, np.sort(piv[:rank]), np.sort(piv[rank:])


def _solve_pos(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve(A, b, assume_a="pos")`` by LAPACK ``dposv`` on the
    upper triangle, as that call reads it; a 1 x 1 system is divided, as it
    is there. FitError where that call raises."""
    if np.isfinite(A).all() and np.isfinite(b).all():
        if len(b) == 1:
            if A[0, 0] != 0.0:
                return b / A[0]
        else:
            _, x, info = dposv(A, b)
            if info == 0:
                return x
    raise FitError("logistic fit failed: singular weighted system")


def fit_ols(design: Design, y: np.ndarray) -> ModelFit:
    """Least squares of ``y``, one value per design row, on the observed design.

    Rank-deficient columns are dropped deterministically (pivoted QR); their
    coefficients are zero in the returned full-width vector. The kept
    coefficients are solved from the same factorization.
    """
    Z, Q, R, piv, kept, dropped = _factored_design(design, with_q=True)
    rank = len(kept)
    beta = np.zeros(Z.shape[1])
    beta[piv[:rank]] = scipy.linalg.solve_triangular(R[:rank, :rank], Q[:, :rank].T @ y)
    return ModelFit(design.spec, "gaussian", beta, kept, dropped, 0)


def fit_logistic(design: Design, y: np.ndarray) -> ModelFit:
    """Logistic regression of the 0/1 response ``y``, one value per design
    row, on the design at the observed treatment, by IRLS.

    Converges when the largest absolute coefficient change falls below 1e-8,
    capped at 50 iterations. Non-convergence (separation) raises FitError,
    as do a response value other than 0 and 1 and a one-class response
    ("degenerate response").
    """
    y = np.asarray(y).astype(np.float64)
    if ((y != 0.0) & (y != 1.0)).any():
        raise FitError("response values must be 0 or 1")
    if y.size == 0 or y.min() == y.max():
        raise FitError("degenerate response: only one class present")
    Z, _, _, _, kept, dropped = _factored_design(design)
    Zk = Z[:, kept]
    del Z  # the design holds at_one alive; IRLS needs only the kept columns
    beta = np.zeros(len(kept))
    for iterations in range(1, IRLS_MAX_ITER + 1):
        eta = np.clip(Zk @ beta, -_LINPRED_CLIP, _LINPRED_CLIP)
        p = 1.0 / (1.0 + np.exp(-eta))
        w = np.maximum(p * (1.0 - p), 1e-10)
        wz = Zk * w[:, None]
        z_work = eta + (y - p) / w
        step = _solve_pos(Zk.T @ wz, wz.T @ z_work)
        delta = np.max(np.abs(step - beta))
        beta = step
        if not np.isfinite(beta).all():
            raise FitError("logistic fit failed: diverging coefficients")
        if delta < IRLS_TOL:
            break
    else:
        raise FitError("logistic fit failed: no convergence (possible separation)")
    eta = Zk @ beta
    if np.max(np.abs(eta)) >= _SEPARATION_ETA and np.all((eta > 0) == (y == 1)):
        # extreme predictors AND perfect classification: no finite optimum
        raise FitError("logistic fit failed: separation")
    full = np.zeros(len(kept) + len(dropped))
    full[kept] = beta
    return ModelFit(design.spec, "binomial", full, kept, dropped, iterations)


def predict_mean(fit: ModelFit, Z: np.ndarray) -> np.ndarray:
    """Predicted mean of each row of the model matrix ``Z``; inverse-logit for logistic fits."""
    eta = Z @ fit.coefficients
    if fit.family == "binomial":
        return 1.0 / (1.0 + np.exp(-np.clip(eta, -_LINPRED_CLIP, _LINPRED_CLIP)))
    return eta
