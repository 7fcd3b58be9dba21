"""Desk-scale VAE in plain numpy.

Softplus MLP encoder/decoder with hand-written reverse-mode gradients, Adam
with global-norm gradient clipping, and checkpoint I/O. Two prior variants:
the tilted prior (unit posterior covariance, quadratic KLD penalty on the
posterior-mean norm) and a standard Gaussian prior with a learned diagonal
posterior scale.

Reconstruction conventions: training and the ELBO terms use the squared l2
error (differentiable least squares); the OOD score uses the plain l2 norm.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConvergenceError, DomainError, NumericalError
from .tilted import TiltedPrior, _check_count

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_WEIGHT_STD = 0.2
# The Gaussian head exponentiates its output twice over; clamping keeps a
# freshly initialized network finite without touching trained-scale values.
_LOG_SIGMA_CLAMP = 15.0
# Inference (encode, decode and ood.score_arrays, whose draw order it fixes) runs
# the network on this many rows at a time, so it holds one chunk's activations.
_INFER_ROWS = 1024
_CHECKPOINT_MAGIC = b"TVAE"
_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class StandardGaussian:
    """The N(0, I) prior, the tau = 0 member of the tilted family, with the
    values TiltedPrior.fit(0.0, d_z) gives. Its posterior differs: the
    encoder also emits log sigma."""

    tau = gamma = committed_rate = log_z_tau = 0.0


@dataclass
class MlpParams:
    """Stacked affine layers with softplus between them (none on the last)."""

    weights: list
    biases: list

    @classmethod
    def init(cls, gen, widths, weight_std=_WEIGHT_STD):
        weights = [
            weight_std * gen.standard_normal((n_in, n_out))
            for n_in, n_out in zip(widths[:-1], widths[1:])
        ]
        biases = [np.zeros(n_out) for n_out in widths[1:]]
        return cls(weights=weights, biases=biases)

    def tensors(self):
        """Weight then bias of each layer, in layer order."""
        return [p for wb in zip(self.weights, self.biases) for p in wb]


def _carve(flat, mlps):
    """MlpParams of views into the flat buffer, one per MLP, laid out in the
    order of ``MlpParams.tensors`` and shaped like ``mlps``."""
    out, off = [], 0
    for mlp in mlps:
        views = []
        for p in mlp.tensors():
            views.append(flat[off:off + p.size].reshape(p.shape))
            off += p.size
        out.append(MlpParams(views[0::2], views[1::2]))
    return out


@dataclass
class VaeModel:
    """Encoder and decoder whose layer tensors are views into one contiguous
    float64 buffer, ``params``; constructing a model copies the given tensors
    into a fresh buffer."""

    encoder: MlpParams
    decoder: MlpParams
    prior: object  # TiltedPrior | StandardGaussian
    d_x: int
    d_z: int
    z_bar: float | None = None  # mean encoded norm, set by train
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = (self.encoder, self.decoder)
        self.params = np.concatenate(
            [p.ravel() for mlp in given for p in mlp.tensors()], dtype=np.float64)
        self.encoder, self.decoder = _carve(self.params, given)

    @property
    def is_tilted(self) -> bool:
        """Unit-covariance posterior (tilted prior), not a learned log sigma."""
        return isinstance(self.prior, TiltedPrior)


def build_model(rng: "np.random.Generator", d_x: int, d_z: int, prior,
                hidden=(256, 128), weight_std=_WEIGHT_STD) -> VaeModel:
    """Encoder (d_x, *hidden, d_z or 2 d_z), decoder mirrored."""
    d_x, d_z = _check_count(d_x, "d_x"), _check_count(d_z)
    hidden = [_check_count(h, f"hidden[{i}]") for i, h in enumerate(hidden)]
    enc_out = d_z if isinstance(prior, TiltedPrior) else 2 * d_z
    encoder = MlpParams.init(rng, (d_x, *hidden, enc_out), weight_std)
    decoder = MlpParams.init(rng, (d_z, *reversed(hidden), d_x), weight_std)
    return VaeModel(encoder, decoder, prior, d_x=d_x, d_z=d_z)


def _softplus(a):
    """(softplus(a), e) with e = exp(-|a|): softplus(a) = max(a, 0) + log1p(e),
    one exp per element and no overflow."""
    e = np.exp(-np.abs(a))
    return np.maximum(a, 0.0) + np.log1p(e), e


def _sigmoid(a, e):
    """sigmoid(a), the softplus slope, from e = exp(-|a|): 1/(1+e) for a >= 0
    and e/(1+e) below."""
    s = np.where(a < 0.0, e, 1.0)
    s /= 1.0 + e
    return s


def _mlp_forward(params, x, where, caches=None):
    """Output of the MLP; raises NumericalError naming the layer on non-finite
    activations. When a caches list is given, appends (input, pre-activation,
    exp(-|pre-activation|)) per layer for the backward pass."""
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = h @ w + b
        if not np.all(np.isfinite(a)):
            raise NumericalError(f"non-finite activations in {where}", layer=i)
        h_in = h
        h, e = _softplus(a) if i < last else (a, None)
        if caches is not None:
            caches.append((h_in, a, e))
    return h


def _mlp_backward(params, caches, dout, grads, input_grad=True):
    """Writes the parameter gradients of a scalar loss into grads (MlpParams
    views of a flat gradient buffer). Returns the gradient w.r.t. the input,
    or None when input_grad is false, which skips the first layer's
    input-side matmul."""
    last = len(params.weights) - 1
    da = dout
    for i in range(last, -1, -1):
        h_in, a, e = caches[i]
        if i < last:
            da *= _sigmoid(a, e)
        np.matmul(h_in.T, da, out=grads.weights[i])
        da.sum(axis=0, out=grads.biases[i])
        if i == 0 and not input_grad:
            return None
        da = da @ params.weights[i].T
    return da


def _as_batch(x, d):
    """x as a float64 (n, d) array; any other shape is a DomainError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != d:
        raise DomainError(f"input has shape {x.shape}, expected (n, {d})")
    return x


# The forward passes report overflow as _mlp_forward's NumericalError, so
# numpy's own warning is silenced once per pass, not per layer.
@np.errstate(over="ignore", invalid="ignore")
def _infer(params, x, where):
    """Forward pass without caches, _INFER_ROWS rows at a time."""
    out = np.empty((x.shape[0], params.weights[-1].shape[1]))
    for i in range(0, x.shape[0], _INFER_ROWS):
        out[i:i + _INFER_ROWS] = _mlp_forward(params, x[i:i + _INFER_ROWS], where)
    return out


def _posterior(model, out):
    """(mu, log sigma) from the encoder's output; log sigma is None for the
    tilted prior's unit-covariance posterior."""
    if model.is_tilted:
        return out, None
    return out[:, : model.d_z], np.clip(out[:, model.d_z:], -_LOG_SIGMA_CLAMP, _LOG_SIGMA_CLAMP)


def encode(model: VaeModel, x):
    """Deterministic encoder pass over an (n, d_x) batch: mu, and log sigma
    when the prior is Gaussian."""
    return _posterior(model, _infer(model.encoder, _as_batch(x, model.d_x), "encoder"))


def decode(model: VaeModel, z):
    """Pixels of an (n, d_z) batch: the decoder's output, clamped in place to [0, 1]."""
    out = _infer(model.decoder, _as_batch(z, model.d_z), "decoder")
    return np.clip(out, 0.0, 1.0, out=out)


def reparameterize(rng: "np.random.Generator", mu, log_sigma=None):
    """z = mu + eps * sigma with eps ~ N(0, I); sigma is 1 when log_sigma is None."""
    mu = np.asarray(mu, dtype=np.float64)
    eps = rng.standard_normal(mu.shape)
    if log_sigma is None:
        return mu + eps
    return mu + eps * np.exp(np.asarray(log_sigma, dtype=np.float64))


@np.errstate(over="ignore")
def kld_rows(model, mu, log_sigma):
    """Per-row divergence term: (||mu|| - gamma)^2 / 2 for the tilted prior,
    without the constant committed rate, else the closed-form Gaussian KLD. A
    term too large for a double is inf, without a warning."""
    if model.is_tilted:
        return 0.5 * (np.linalg.norm(mu, axis=1) - model.prior.gamma) ** 2
    return 0.5 * np.sum(np.exp(2.0 * log_sigma) + mu * mu - 1.0 - 2.0 * log_sigma, axis=1)


@np.errstate(over="ignore", invalid="ignore")
def _elbo_forward_backward(model, x, eps):
    """Mean (recon, kld) over a batch with fixed noise, plus the parameter
    gradients as a flat buffer laid out like model.params. The KLD per row is
    kld_rows plus the committed rate.

    Keeping the noise an explicit argument makes the function a deterministic
    map of (parameters, batch, noise), which is what both the optimizer step
    and the finite-difference gradient checks need.
    """
    b = x.shape[0]
    enc_caches, dec_caches = [], []
    mu, log_sigma = _posterior(model, _mlp_forward(model.encoder, x, "encoder", enc_caches))
    sigma = 1.0 if log_sigma is None else np.exp(log_sigma)
    xhat = _mlp_forward(model.decoder, mu + eps * sigma, "decoder", dec_caches)
    diff = xhat - x
    recon = np.sum(diff * diff, axis=1)
    kld = kld_rows(model, mu, log_sigma) + model.prior.committed_rate

    grads = np.empty_like(model.params)
    enc_grads, dec_grads = _carve(grads, (model.encoder, model.decoder))
    dz = _mlp_backward(model.decoder, dec_caches, 2.0 * diff / b, dec_grads)
    if log_sigma is None:
        norms = np.linalg.norm(mu, axis=1)
        dmu = ((norms - model.prior.gamma) / np.where(norms > 0.0, norms, 1.0))[:, None] * mu
        dmu[norms == 0.0] = 0.0
        denc = dz + dmu / b
    else:
        unclamped = np.abs(log_sigma) < _LOG_SIGMA_CLAMP
        dlog_sigma = (dz * eps * sigma + (np.exp(2.0 * log_sigma) - 1.0) / b) * unclamped
        denc = np.concatenate([dz + mu / b, dlog_sigma], axis=1)
    _mlp_backward(model.encoder, enc_caches, denc, enc_grads, input_grad=False)
    return float(recon.mean()), float(kld.mean()), grads


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-4
    grad_clip: float = 100.0

    def __post_init__(self):
        try:
            for key in ("epochs", "batch_size"):
                object.__setattr__(self, key, _check_count(getattr(self, key), key))
        except DomainError as exc:
            raise DomainError(f"invalid training config {self}: {exc}") from None
        if not (0 < self.learning_rate < math.inf and 0 < self.grad_clip < math.inf):
            raise DomainError(f"invalid training config {self}")


class AdamState:
    """First/second moment accumulators over the model's flat parameter
    buffer, and one scratch buffer for the update."""

    def __init__(self, model: VaeModel):
        self.t = 0
        self.m = np.zeros_like(model.params)
        self.v = np.zeros_like(model.params)
        self.scratch = np.empty_like(model.params)


def grad_step(model: VaeModel, opt: AdamState, rng: "np.random.Generator", batch,
              config: TrainConfig):
    """One Adam step on the mean negative ELBO over the batch (in place).

    The global gradient norm is clipped at config.grad_clip before the update.
    Returns the batch-mean (recon, kld) at the pre-update parameters.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DomainError("batch must be a non-empty (n, d_x) array")
    eps = rng.standard_normal((x.shape[0], model.d_z))
    recon, kld, g = _elbo_forward_backward(model, x, eps)
    if not (math.isfinite(recon) and math.isfinite(kld)):
        raise NumericalError("non-finite loss", recon=recon, kld=kld)
    # einsum, not the BLAS dot g @ g: BLAS splits the dot across its threads,
    # so the sum, and once clipping fires every parameter, would depend on
    # the thread count.
    total = math.sqrt(float(np.einsum("i,i->", g, g)))
    if total > config.grad_clip:
        g *= config.grad_clip / total
    opt.t += 1
    m, v, tmp = opt.m, opt.v, opt.scratch
    m *= _ADAM_BETA1
    np.multiply(g, 1.0 - _ADAM_BETA1, out=tmp)
    m += tmp
    v *= _ADAM_BETA2
    np.multiply(g, 1.0 - _ADAM_BETA2, out=tmp)
    tmp *= g
    v += tmp
    # lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m / c1 and v_hat = v / c2,
    # as one scalar step size times m / (sqrt(v) + eps sqrt(c2)).
    c1 = 1.0 - _ADAM_BETA1**opt.t
    root_c2 = math.sqrt(1.0 - _ADAM_BETA2**opt.t)
    np.sqrt(v, out=tmp)
    tmp += _ADAM_EPS * root_c2
    np.divide(m, tmp, out=tmp)
    tmp *= config.learning_rate * root_c2 / c1
    model.params -= tmp
    return recon, kld


def encode_norms(model: VaeModel, dataset: Dataset) -> np.ndarray:
    """||mu(x)|| over a dataset."""
    mu, _ = encode(model, dataset.samples)
    return np.linalg.norm(mu, axis=1)


def train(model: VaeModel, dataset: Dataset, config: TrainConfig,
          rng: "np.random.Generator") -> list:
    """Shuffled minibatch training, with each epoch's order and each step's noise from rng.

    Trains the model in place and sets its z_bar, the mean norm of the
    encoded data after training. Returns the per-epoch (recon, kld) log.
    """
    if dataset.n < 1:
        raise DomainError("dataset is empty")
    if dataset.d_x != model.d_x:
        raise DomainError(f"dataset d_x={dataset.d_x} but model expects {model.d_x}")
    opt = AdamState(model)
    history = []
    for epoch in range(config.epochs):
        perm = rng.permutation(dataset.n)
        recon_sum = kld_sum = 0.0
        for start in range(0, dataset.n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            try:
                recon, kld = grad_step(model, opt, rng, dataset.samples[idx], config)
            except NumericalError as exc:
                exc.context.update(epoch=epoch, batch_start=start)
                raise
            recon_sum += recon * idx.size
            kld_sum += kld * idx.size
        history.append((recon_sum / dataset.n, kld_sum / dataset.n))
    model.z_bar = float(encode_norms(model, dataset).mean())
    return history


def save_checkpoint(model: VaeModel, path) -> None:
    """Versioned binary container (little-endian float64 tensors, row-major);
    a z_bar of None is stored as NaN."""
    prior = model.prior
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIIB", _CHECKPOINT_VERSION, model.d_x, model.d_z,
                             1 if model.is_tilted else 0))
        fh.write(struct.pack("<5d", prior.tau, prior.gamma, prior.committed_rate,
                             prior.log_z_tau, math.nan if model.z_bar is None else model.z_bar))
        for mlp in (model.encoder, model.decoder):
            fh.write(struct.pack("<I", len(mlp.weights)))
            for w, b in zip(mlp.weights, mlp.biases):
                fh.write(struct.pack("<II", *w.shape))
                fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_checkpoint(path) -> VaeModel:
    """Inverse of save_checkpoint; a stored z_bar of NaN loads as None.

    The tilted prior is refit from the stored tau and d_z. Every
    inconsistency (truncation, trailing bytes, an unknown prior tag, a
    non-finite parameter, a stored tau, gamma, committed rate or log Z more
    than 1e-9 relative from the prior it builds, the refit or the standard
    Gaussian's zeros, a z_bar that is not NaN and not finite and positive, a
    d_x, d_z or hidden width of 0, layer shapes that disagree with d_x and
    d_z) is a DomainError naming the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _CHECKPOINT_MAGIC:
        raise DomainError(f"{path}: not a checkpoint (bad magic {raw[:4]!r})")
    view = memoryview(raw)
    off = 4

    def take(n):
        nonlocal off
        if n > len(raw) - off:
            raise DomainError(
                f"{path}: truncated checkpoint ({n} bytes needed at offset {off}, "
                f"{len(raw) - off} left)"
            )
        off += n
        return view[off - n:off]

    def read_mlp():
        (n_layers,) = struct.unpack("<I", take(4))
        weights, biases = [], []
        for _ in range(n_layers):
            rows, cols = struct.unpack("<II", take(8))
            weights.append(np.frombuffer(take(8 * rows * cols), dtype="<f8").reshape(rows, cols))
            biases.append(np.frombuffer(take(8 * cols), dtype="<f8"))
        return MlpParams(weights, biases)

    version, d_x, d_z, prior_tag = struct.unpack("<IIIB", take(13))
    if version != _CHECKPOINT_VERSION:
        raise DomainError(f"{path}: unsupported checkpoint version {version}")
    if prior_tag not in (0, 1):
        raise DomainError(f"{path}: unknown prior tag {prior_tag}")
    if 0 in (d_x, d_z):
        raise DomainError(f"{path}: {'d_x' if d_x == 0 else 'd_z'} is 0")
    tau, gamma, rate, log_z, z_bar = struct.unpack("<5d", take(40))
    encoder = read_mlp()
    decoder = read_mlp()
    if off != len(raw):
        raise DomainError(f"{path}: {len(raw) - off} trailing bytes after the decoder")
    if not all(np.isfinite(p).all() for p in encoder.weights + encoder.biases
               + decoder.weights + decoder.biases):
        raise DomainError(f"{path}: a weight or bias is not finite")
    _check_widths(path, "encoder", encoder, d_x, d_z if prior_tag == 1 else 2 * d_z)
    _check_widths(path, "decoder", decoder, d_z, d_x)
    prior, kind, source = StandardGaussian(), "gaussian", "the standard Gaussian has"
    if prior_tag == 1:
        kind, source = "tilted", f"the refit for tau = {tau!r} gives"
        try:
            prior = TiltedPrior.fit(tau, d_z)
        except (DomainError, ConvergenceError) as exc:
            raise DomainError(f"{path}: tilted-prior header tau = {tau!r}: {exc}") from None
    for name, stored in zip(("tau", "gamma", "committed_rate", "log_z_tau"),
                            (tau, gamma, rate, log_z)):
        want = getattr(prior, name)
        if not math.isclose(stored, want, rel_tol=1e-9):
            raise DomainError(f"{path}: {kind}-prior header {name} = {stored!r}, "
                              f"but {source} {want!r}")
    if not (math.isnan(z_bar) or (math.isfinite(z_bar) and z_bar > 0.0)):
        raise DomainError(f"{path}: z_bar must be finite and positive (or NaN for absent), "
                          f"got {z_bar}")
    return VaeModel(encoder, decoder, prior, d_x=d_x, d_z=d_z,
                    z_bar=None if math.isnan(z_bar) else z_bar)


def _check_widths(path, name, mlp, n_in, n_out):
    """The layers must chain from n_in inputs to n_out outputs."""
    widths = [n_in] + [w.shape[1] for w in mlp.weights]
    inputs = [w.shape[0] for w in mlp.weights]
    if not mlp.weights or inputs != widths[:-1] or widths[-1] != n_out:
        shapes = [w.shape for w in mlp.weights]
        raise DomainError(
            f"{path}: {name} layer shapes {shapes} do not map {n_in} inputs to {n_out} outputs"
        )
    if 0 in widths:
        raise DomainError(f"{path}: {name} hidden layer {widths.index(0)} has width 0")
