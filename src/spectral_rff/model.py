"""Weight-space Gaussian process regression on trigonometric features.

For features phi (n x 2m) with prior weight variance s = sigma_f^2 / M
(M = m for the stationary map, 4m for the nonstationary one) the model

    y = phi w + eps,   w ~ N(0, s I),   eps ~ N(0, sigma_n^2 I)

has marginal covariance s phi phi' + sigma_n^2 I. With
r = M sigma_n^2 / sigma_f^2, the 2m x 2m A = phi' phi + r I and the
n x n B = phi phi' + r I share their eigenvalues except for |2m - n|
extra ones equal to r, and phi A^-1 = B^-1 phi. Inference factors the
smaller, C = R R' of order k = min(n, 2m) (LAPACK dpotrf), so with
b = phi' y and e = 2m - k

    alpha2 = A^-1 b = C^-1 b (C = A)  or  phi' C^-1 y (C = B),
    log|A| = 2 sum_i log R_ii + e log r,

each by one dpotrs, and |alpha1|^2 = b' A^-1 b = b' alpha2 gives

    L = -(|y|^2 - b' alpha2) / (2 sigma_n^2) - log|A| / 2
        + m log r - (n / 2) log(2 pi sigma_n^2)

with no triangular solve. The saved model holds the factor R_A of A
itself and alpha2; the bank alone picks the feature map. The posterior
predictive at a feature row p is

    mean = p' alpha2,
    var  = sigma_n^2 (1 + |R_A^-1 p|^2),

with R_A^-1 formed once per PredictWorkspace, so each row chunk's
|R_A^-1 p|^2 is one triangular multiply. Both agree with dense
conditioning on the induced kernel to rounding. Besides the features, a
training step holds no matrix larger than min(n, 2m)^2; only fit_state
and predict hold the 2m x 2m R_A. fit_state forms b and A, then drops
phi before it factors, so it holds A and R_A; save_model writes R_A's
base64 from row blocks, with no whole copy of it as text. predict owns
one chunk's buffers for the whole call, or for every call given the
same PredictWorkspace, and reduced_core writes into the trainer's when
given them; no other array returned here aliases a buffer.
"""

import base64
import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmm

from . import linalg
from .data import StandardizationStats
from .errors import (DimensionMismatch, InvalidParams, InvalidSpec,
                     SchemaMismatch)
from .features import FeatureBuffers, features_for_mode, ridge_multiplier
from .measures import (_decode_array, _encode_array, _json_array, _json_field,
                       _json_number, bank_from_json_dict, bank_to_json_dict)

MODEL_FORMAT_VERSION = 2

# Smallest noise variance the trainer may reach (standardized units).
SIGMA_N2_FLOOR = 1e-10

# predict() works through row chunks whose n x 2m feature block takes
# about this many bytes: 600 KiB is 256 rows at m = 150, so the block
# and its (2, rows, m) cos/sin pair, 1.2 MiB together, stay in a core's
# L2 cache through the trig map's elementwise passes. Chunk sizes are
# multiples of PREDICT_CHUNK_ALIGN rows: BLAS blocks rows in small
# groups, and aligned chunks keep every row in the same group as in a
# single whole-block call.
PREDICT_CHUNK_BYTES = 600 * 2 ** 10
PREDICT_CHUNK_ALIGN = 256

# save_model writes r's base64 from row blocks of about this many bytes,
# where the marker stands in the rest of the document
SAVE_BLOCK_BYTES = 96 * 2 ** 10
_R_DATA = "<r data>"

# Largest magnitude of a log-variance: exp() overflows double precision
# just above 709, and its variance would be zero or infinite beyond here.
LOG_VARIANCE_BOUND = 700.0


@dataclass
class Hyperparams:
    log_sigma_f2: float
    log_sigma_n2: float

    @classmethod
    def from_variances(cls, sigma_f2, sigma_n2):
        if not (np.isfinite(sigma_f2) and sigma_f2 > 0):
            raise InvalidParams("sigma_f2 must be finite and positive")
        if not (np.isfinite(sigma_n2) and sigma_n2 > 0):
            raise InvalidParams("sigma_n2 must be finite and positive")
        return cls(float(np.log(sigma_f2)), float(np.log(sigma_n2)))

    @property
    def sigma_f2(self):
        return float(np.exp(self.log_sigma_f2))

    @property
    def sigma_n2(self):
        return float(np.exp(self.log_sigma_n2))


def ridge_term(phi, hyper):
    """r = M sigma_n^2 / sigma_f^2 with M = m or 4m by phi's bank count."""
    return ridge_multiplier(phi) * hyper.sigma_n2 / hyper.sigma_f2


@dataclass(eq=False)
class FitState:
    r: np.ndarray        # lower Cholesky factor of A, (2m, 2m)
    alpha2: np.ndarray   # A^-1 phi' y
    hyper: Hyperparams
    bank: object
    jitter: float = 0.0
    standardization: StandardizationStats = None
    input_columns: list = None


def _targets(phi, y):
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != phi.phi.shape[0]:
        raise DimensionMismatch(
            f"{phi.phi.shape[0]} feature rows but {y.shape[0]} targets")
    return y


def _factor_gram(mat, ridge, buffers=None):
    """Cholesky factor of mat' mat + ridge I and the jitter it took."""
    a = linalg.gram(mat, None if buffers is None else buffers.gram)
    a[np.diag_indices_from(a)] += ridge
    return linalg.cholesky(a, out=None if buffers is None else buffers.chol)


def reduced_core(phi, y, hyper, buffers=None):
    """Factor the smaller Gram system and evaluate the log marginal likelihood.

    The factored system C is A = phi' phi + r I when n >= 2m and
    B = phi phi' + r I when n < 2m (module docstring). Returns a dict
    with chol (lower Cholesky factor of C, k x k with k = min(n, 2m)),
    alpha2, ridge, jitter, lml, |y|^2 (yy) and |alpha1|^2 = b' alpha2,
    |alpha2|^2 (a1_sq, a2_sq); shared by the public entry points and the
    trainer. C and chol are written into the k x k ``buffers.gram`` and
    Fortran-ordered ``buffers.chol`` when given (training.StepWorkspace).
    """
    y = _targets(phi, y)
    mat = phi.phi
    n = mat.shape[0]
    m = phi.m
    ridge = ridge_term(phi, hyper)
    b = mat.T @ y
    if n >= 2 * m:
        chol, jitter = _factor_gram(mat, ridge, buffers)
        alpha2 = linalg.solve_factored(chol, b)
    else:
        chol, jitter = _factor_gram(mat.T, ridge, buffers)
        alpha2 = mat.T @ linalg.solve_factored(chol, y)
    sigma_n2 = hyper.sigma_n2
    yy = float(y @ y)
    a1_sq = float(b @ alpha2)
    # -log|A| / 2 + m log r, with log|A| = 2 sum log R_ii + (2m - k) log r
    lml = (-(yy - a1_sq) / (2.0 * sigma_n2)
           - float(np.sum(np.log(np.diagonal(chol))))
           + 0.5 * chol.shape[0] * np.log(ridge)
           - 0.5 * n * np.log(2.0 * np.pi * sigma_n2))
    return {"chol": chol, "alpha2": alpha2, "ridge": ridge,
            "jitter": jitter, "lml": float(lml), "yy": yy, "a1_sq": a1_sq,
            "a2_sq": float(alpha2 @ alpha2)}


def fit_state(phi, y, hyper, bank, standardization=None, input_columns=None):
    """Factor A = phi' phi + r I itself, whatever n is, and package
    everything needed to predict: predict and model.json use its factor."""
    y = _targets(phi, y)
    ridge = ridge_term(phi, hyper)
    b = phi.phi.T @ y
    a = linalg.gram(phi.phi)
    del phi   # freed here when the caller keeps no name for it
    a[np.diag_indices_from(a)] += ridge
    r, jitter = linalg.cholesky(a)
    alpha2 = linalg.solve_factored(r, b)
    return FitState(r, alpha2, hyper, bank, jitter, standardization, input_columns)


def log_marginal_likelihood_reduced(phi, y, hyper):
    """O(n 2m min(n, 2m)) log marginal likelihood through the smaller
    Gram system."""
    return reduced_core(phi, y, hyper)["lml"]


def _chunk_rows(m):
    """Rows per predict chunk: the most whose n x 2m feature block fits in
    PREDICT_CHUNK_BYTES, rounded down to a multiple of PREDICT_CHUNK_ALIGN."""
    rows = PREDICT_CHUNK_BYTES // (2 * m * 8)
    return max(PREDICT_CHUNK_ALIGN, rows - rows % PREDICT_CHUNK_ALIGN)


class PredictWorkspace(FeatureBuffers):
    """What predict() forms once per model: R^-1 and one chunk's buffers,
    a (cos, sin) pair that the banks take in turn and the feature block.
    ``rows`` is the chunk length; ``n`` caps the buffers for a call that
    predicts fewer rows than one chunk."""

    def __init__(self, state, n=None):
        self.rows = _chunk_rows(state.bank.m)
        super().__init__(self.rows if n is None else min(n, self.rows), state.bank.m, 1)
        self.rinv = linalg.inverse_lower(state.r)


def predict(state, x_star, work=None):
    """Posterior predictive mean and variance at new inputs.

    Runs in O(n_star m^2 + m^3) time: R^-1 is formed once, then each
    row chunk costs one feature map and one triangular multiply. x_star
    is walked in chunks of ``work.rows`` rows, whose feature block holds
    about PREDICT_CHUNK_BYTES, so the working memory is O(chunk m) on
    top of the length-n_star outputs. Chunk starts sit on multiples of
    PREDICT_CHUNK_ALIGN rows, so BLAS groups every row as in one
    whole-block pass; with OpenBLAS the mean is bitwise equal to that
    pass. The feature block, which dtrmm overwrites after the mean is
    taken, serves every chunk. ``work`` is a PredictWorkspace of this
    state, fresh by default: a caller that predicts block by block
    passes one, so R^-1 and the buffers are made once, and blocks of
    whole chunks give the bits one call over all rows would.
    """
    x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
    if x_star.shape[1] != state.bank.dim:
        raise DimensionMismatch(
            f"inputs have dimension {x_star.shape[1]}, model has {state.bank.dim}")
    n = x_star.shape[0]
    if work is None:
        work = PredictWorkspace(state, n)
    mean = np.empty(n)
    var = np.empty(n)
    rows = work.rows
    for lo in range(0, n, rows):
        chunk = slice(lo, lo + rows)
        phi = features_for_mode(x_star[chunk], state.bank, work).phi
        np.matmul(phi, state.alpha2, out=mean[chunk])
        v = dtrmm(1.0, work.rinv, phi.T, lower=1, overwrite_b=1)
        np.square(v, out=v)
        np.sum(v, axis=0, out=var[chunk])
    var += 1.0
    var *= state.hyper.sigma_n2
    return mean, var


def save_model(path, state):
    """Write the bytes of json.dump(doc, fh, sort_keys=True) plus a
    newline, with r's base64 streamed from row blocks: each but the last
    is a whole number of 3-row groups, 48m bytes and so a multiple of 3,
    so their encodings join into the encoding of all of r, and no copy of
    r as bytes, base64 or a quoted string is made."""
    r = state.r
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "bank": bank_to_json_dict(state.bank),
        "hyperparams": {"log_sigma_f2": state.hyper.log_sigma_f2,
                        "log_sigma_n2": state.hyper.log_sigma_n2},
        "fit": {"r": {"shape": list(r.shape), "data": _R_DATA},
                "alpha2": _encode_array(state.alpha2),
                "jitter": state.jitter},
        "standardization": None,
        "input_columns": list(state.input_columns) if state.input_columns else None,
    }
    if state.standardization is not None:
        st = state.standardization
        doc["standardization"] = {
            "input_mean": list(map(float, st.input_mean)),
            "input_std": list(map(float, st.input_std)),
            "output_mean": st.output_mean,
            "output_std": st.output_std,
        }
    # the bank sorts before fit and holds only base64 and fixed keys, so
    # the first marker is r's; a column name comes later
    head, _, tail = json.dumps(doc, sort_keys=True).partition(_R_DATA)
    rows = 3 * max(1, SAVE_BLOCK_BYTES // (24 * r.shape[1]))
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        for lo in range(0, r.shape[0], rows):
            block = np.ascontiguousarray(r[lo:lo + rows], dtype="<f8")
            fh.write(base64.b64encode(block))
        fh.write(tail.encode("ascii"))
        fh.write(b"\n")


def _shaped(a, name, shape):
    if a.shape != shape:
        raise InvalidSpec(f"{name} has shape {a.shape}, expected {shape}")
    return a


def load_model(path):
    """Read a model written by save_model, checking every field first.

    Fields are read with the measures module's JSON readers. A missing
    key, a mistyped, non-finite or oversized value, a wrong length or
    shape, a log-variance whose variance is zero or infinite, or an r
    that is not lower-triangular with a positive diagonal, and JSON nested
    too deeply to read, raise SchemaMismatch, so a damaged file never
    reaches predict.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        version = _json_field(doc, "format_version", "document")
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise InvalidSpec(f"unsupported model format version {version!r}")
        bank = bank_from_json_dict(_json_field(doc, "bank", "document"))
        k, dim = 2 * bank.m, bank.dim

        hp = _json_field(doc, "hyperparams", "document")
        hyper = Hyperparams(*(_json_number(_json_field(hp, key, "hyperparams"), key)
                              for key in ("log_sigma_f2", "log_sigma_n2")))
        for key, value in vars(hyper).items():
            if not abs(value) < LOG_VARIANCE_BOUND:
                raise InvalidSpec(f"{key} = {value} gives a variance that is zero "
                                  f"or infinite")

        fit = _json_field(doc, "fit", "document")
        r, alpha2 = (
            _shaped(_decode_array(_json_field(fit, key, "fit"), key), key, shape)
            for key, shape in (("r", (k, k)), ("alpha2", (k,))))
        if not np.all(np.diagonal(r) > 0.0) or np.any(np.triu(r, 1)):
            raise InvalidSpec("r is not lower-triangular with a positive diagonal")
        jitter = _json_number(fit.get("jitter", 0.0), "jitter")

        stats = None
        st = doc.get("standardization")
        if st is not None:
            def part(key, shape):
                value = _json_array(_json_field(st, key, "standardization"), key)
                return _shaped(value, key, shape)

            stats = StandardizationStats(part("input_mean", (dim,)),
                                         part("input_std", (dim,)),
                                         float(part("output_mean", ())),
                                         float(part("output_std", ())))
            if not (np.all(stats.input_std > 0.0) and stats.output_std > 0.0):
                raise InvalidSpec("standard deviations must be positive")

        columns = doc.get("input_columns")
        if columns is not None and not (
                isinstance(columns, list) and len(columns) == dim
                and all(isinstance(c, str) for c in columns)):
            raise InvalidSpec(f"input_columns is not a list of {dim} names")
    except InvalidSpec as exc:
        raise SchemaMismatch(f"model file: {exc}") from None
    except RecursionError:
        raise SchemaMismatch("model file: JSON is nested too deeply") from None
    return FitState(r, alpha2, hyper, bank, jitter, stats, columns)
