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

Every function taking ``rows`` works on a row-index array: integer indices
into the dataset, in the order given, duplicates allowed, so a resampled
index array is a bootstrap replicate's rows. A subgroup's model matrix is
those rows of one treatment-free root design per (dataset, spec), with the
treatment-involving columns scaled by A.
Fitting uses column-pivoted QR so that rank-deficient designs drop columns
deterministically instead of failing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .data import Continuous, Dataset, Schema

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 50
_LINPRED_CLIP = 500.0
_SEPARATION_ETA = 30.0


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


def _factor_columns(factor: Factor, data: Dataset) -> tuple[np.ndarray, list[str]]:
    """Column block (n x k) and labels for one factor on every dataset row."""
    check_factor(factor, data.schema)
    kind = data.schema.kind_of(factor.column)
    values = data.covariates[factor.column]
    if factor.transform == "main":
        if isinstance(kind, Continuous):
            return values[:, None], [factor.label()]
        # reference coding: first declared level is the baseline
        k = len(kind.levels)
        block = np.zeros((data.n, k - 1))
        for j in range(1, k):
            block[:, j - 1] = values == j
        labels = [f"{factor.column}[{lv}]" for lv in kind.levels[1:]]
        return block, labels
    if factor.transform == "exp":
        return np.exp(values)[:, None], [factor.label()]
    if factor.transform == "cube":
        return (values**3)[:, None], [factor.label()]
    if factor.transform == "gt":
        return (values > factor.threshold).astype(np.float64)[:, None], [factor.label()]
    if factor.transform == "lt":
        return (values < factor.threshold).astype(np.float64)[:, None], [factor.label()]
    codes = [kind.levels.index(lv) for lv in factor.levels]
    return np.isin(values, codes).astype(np.float64)[:, None], [factor.label()]


def _root_design(data: Dataset, spec: DesignSpec) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Treatment-free design of every dataset row, built once per (dataset, spec).

    Every transform works row by row, so a subgroup's design is a row slice
    of this matrix. The treatment column holds 1 and each treatment
    interaction column holds its factor; ``treated`` marks those columns,
    which a subgroup's design scales by A. Returns ``(F, labels, treated)``,
    memoized read-only in ``data.derived``.
    """
    cached = data.derived.get(spec)
    if cached is not None:
        return cached
    blocks: list[np.ndarray] = []
    labels: list[str] = []
    treated: list[bool] = []
    for term in spec.terms:
        if term.kind in ("intercept", "treatment"):
            blocks.append(np.ones((data.n, 1)))
            labels.append("1" if term.kind == "intercept" else data.schema.treatment)
            treated.append(term.kind == "treatment")
        else:
            block, labs = _factor_columns(term.factor, data)
            blocks.append(block)
            if term.kind == "interaction":
                labs = [f"{data.schema.treatment}:{lab}" for lab in labs]
            labels.extend(labs)
            treated.extend([term.kind == "interaction"] * len(labs))
    F = np.hstack(blocks)
    treated_cols = np.array(treated)
    F.setflags(write=False)
    treated_cols.setflags(write=False)
    cached = (F, tuple(labels), treated_cols)
    data.derived[spec] = cached
    return cached


def check_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` as an index array; TypeError for a mask, whose length counts every row."""
    rows = np.asarray(rows)
    if rows.dtype.kind not in "iu":
        raise TypeError(f"rows must be an integer index array, not {rows.dtype}")
    return rows


def build_design(
    data: Dataset,
    rows: np.ndarray,
    spec: DesignSpec,
    treatment_override: Optional[int] = None,
) -> tuple[np.ndarray, list[str]]:
    """Model matrix of the given rows, one matrix row per index.

    ``treatment_override`` substitutes a constant A=a in the treatment main
    effect and every treatment interaction, leaving other columns unchanged.
    """
    rows = check_rows(rows)
    F, labels, treated = _root_design(data, spec)
    Z = F[rows]
    if treatment_override is None:
        Z[:, treated] *= data.treatment[rows].astype(np.float64)[:, None]
    elif treatment_override != 1:
        Z[:, treated] *= float(treatment_override)
    return Z, list(labels)


def build_design_difference(data: Dataset, rows: np.ndarray, spec: DesignSpec) -> np.ndarray:
    """design(A=1) - design(A=0) of the given rows.

    Only treatment-involving columns are nonzero, so the difference is exact
    (no floating-point cancellation) and cheap.
    """
    rows = check_rows(rows)
    F, _, treated = _root_design(data, spec)
    D = np.zeros((len(rows), F.shape[1]))
    D[:, treated] = F[np.ix_(rows, np.flatnonzero(treated))]
    return D


@dataclass
class LinearFit:
    """Least-squares fit; `coefficients` is full width with zeros at dropped columns."""

    spec: DesignSpec
    coefficients: np.ndarray
    rank: int
    kept: np.ndarray
    dropped: np.ndarray
    column_labels: list[str]
    family: str = "gaussian"


@dataclass
class LogisticFit:
    """Maximum-likelihood logistic fit via iteratively reweighted least squares."""

    spec: DesignSpec
    coefficients: np.ndarray
    converged: bool
    iterations: int
    kept: np.ndarray
    dropped: np.ndarray
    column_labels: list[str]
    family: str = "binomial"


AnyFit = Union[LinearFit, LogisticFit]


def _pivoted_qr(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Column-pivoted economic QR of Z, ``Z[:, piv] = Q R``, and its numerical rank.

    The first ``rank`` pivots are the kept columns; the rest are dropped.
    """
    Q, R, piv = scipy.linalg.qr(Z, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if len(diag) == 0 or diag[0] == 0.0:
        raise FitError("design matrix is identically zero")
    tol = diag[0] * max(Z.shape) * np.finfo(np.float64).eps
    return Q, R, piv, int(np.sum(diag > tol))


def fit_ols(data: Dataset, rows: np.ndarray, spec: DesignSpec) -> LinearFit:
    """Least squares of the outcome on the spec's design over the given rows.

    Rank-deficient columns are dropped deterministically (pivoted QR); their
    coefficients are zero in the returned full-width vector. The kept
    coefficients are solved from the same factorization.
    """
    Z, labels = build_design(data, rows, spec)
    y = data.outcome[rows]
    if Z.shape[0] < Z.shape[1]:
        raise FitError("insufficient data: fewer rows than design columns")
    Q, R, piv, rank = _pivoted_qr(Z)
    beta = np.zeros(Z.shape[1])
    beta[piv[:rank]] = scipy.linalg.solve_triangular(R[:rank, :rank], Q[:, :rank].T @ y)
    return LinearFit(spec, beta, rank, np.sort(piv[:rank]), np.sort(piv[rank:]), labels)


def fit_logistic(
    data: Dataset,
    rows: np.ndarray,
    spec: DesignSpec,
    response: Optional[np.ndarray] = None,
) -> LogisticFit:
    """Logistic regression by IRLS; the response defaults to the treatment column.

    Converges when the largest absolute coefficient change falls below 1e-8,
    capped at 50 iterations. Non-convergence (separation) raises FitError;
    a one-arm response raises FitError("degenerate response"). ``response``,
    when given, holds one value per dataset row.
    """
    y = (data.treatment[rows] if response is None else np.asarray(response)[rows]).astype(np.float64)
    if y.min(initial=1.0) == y.max(initial=0.0) or len(np.unique(y)) < 2:
        raise FitError("degenerate response: only one class present")
    Z, labels = build_design(data, rows, spec)
    if Z.shape[0] < Z.shape[1]:
        raise FitError("insufficient data: fewer rows than design columns")
    _, _, piv, rank = _pivoted_qr(Z)
    kept, dropped = np.sort(piv[:rank]), np.sort(piv[rank:])
    Zk = Z[:, kept]
    beta = np.zeros(len(kept))
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        eta = np.clip(Zk @ beta, -_LINPRED_CLIP, _LINPRED_CLIP)
        p = 1.0 / (1.0 + np.exp(-eta))
        w = np.maximum(p * (1.0 - p), 1e-10)
        wz = Zk * w[:, None]
        z_work = eta + (y - p) / w
        try:
            step = scipy.linalg.solve(Zk.T @ wz, wz.T @ z_work, assume_a="pos")
        except (scipy.linalg.LinAlgError, ValueError):
            raise FitError("logistic fit failed: singular weighted system")
        delta = np.max(np.abs(step - beta))
        beta = step
        if not np.isfinite(beta).all():
            raise FitError("logistic fit failed: diverging coefficients")
        if delta < IRLS_TOL:
            converged = True
            break
    if not converged:
        raise FitError("logistic fit failed: no convergence (possible separation)")
    eta = Zk @ beta
    if np.max(np.abs(eta)) >= _SEPARATION_ETA and np.all((eta > 0) == (y == 1)):
        # extreme predictors AND perfect classification: no finite optimum
        raise FitError("logistic fit failed: separation")
    full = np.zeros(Z.shape[1])
    full[kept] = beta
    return LogisticFit(spec, full, True, iterations, kept, dropped, labels)


def predict_mean(
    fit: AnyFit,
    data: Dataset,
    rows: np.ndarray,
    treatment_override: Optional[int] = None,
) -> np.ndarray:
    """Predicted mean of each given row; inverse-logit for logistic fits."""
    Z, _ = build_design(data, rows, fit.spec, treatment_override)
    eta = Z @ fit.coefficients
    if fit.family == "binomial":
        return 1.0 / (1.0 + np.exp(-np.clip(eta, -_LINPRED_CLIP, _LINPRED_CLIP)))
    return eta
