"""Two-branch network assembly: a three-block temporal conv branch in
parallel with a single-step recurrent branch over the dimension-shuffled
series, concatenated into a dense softmax head. Also parameter counting and
binary checkpoint serialization.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import layers
from .layers import ConvBlock, DenseSoftmax, GruCell, LstmCell
from .tensor_core import Rng, glorot_uniform_init, he_uniform_init

CHECKPOINT_MAGIC = b"GRUFCN1\n"

GRU = "gru"
LSTM = "lstm"


class CheckpointError(ValueError):
    """A checkpoint file is malformed, or a model cannot be saved as one;
    the message begins with the file."""


@dataclass
class ArchConfig:
    series_length: int
    num_classes: int
    cell_kind: str = GRU
    hidden_size: int = 8
    conv_filters: tuple[int, ...] = (128, 256, 128)
    conv_kernels: tuple[int, ...] = (8, 5, 3)
    dropout_rate: float = 0.8
    bn_momentum: float = 0.99
    bn_epsilon: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        self.conv_filters, self.conv_kernels = tuple(self.conv_filters), tuple(self.conv_kernels)
        whole = (self.series_length, self.num_classes, self.hidden_size, self.seed,
                 *self.conv_filters, *self.conv_kernels)
        if not all(isinstance(n, numbers.Integral) for n in whole):
            raise ValueError(f"sizes and seed must be integers, got {self}")
        self.conv_filters = tuple(int(f) for f in self.conv_filters)
        self.conv_kernels = tuple(int(k) for k in self.conv_kernels)
        if self.cell_kind not in (GRU, LSTM):
            raise ValueError(f"cell_kind must be '{GRU}' or '{LSTM}', got {self.cell_kind!r}")
        if len(self.conv_filters) != len(self.conv_kernels):
            raise ValueError("conv_filters and conv_kernels lengths differ")
        if not self.conv_filters or min(self.conv_filters + self.conv_kernels) < 1:
            raise ValueError(
                f"need at least one conv block with filters and kernels >= 1; got "
                f"filters {self.conv_filters}, kernels {self.conv_kernels}"
            )
        if self.series_length < 1 or self.num_classes < 2 or self.hidden_size < 1:
            raise ValueError(
                f"need series_length >= 1, num_classes >= 2, hidden_size >= 1; "
                f"got L={self.series_length}, C={self.num_classes}, H={self.hidden_size}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not (isinstance(self.bn_momentum, numbers.Real) and 0.0 <= self.bn_momentum <= 1.0):
            raise ValueError(f"bn_momentum must be in [0, 1], got {self.bn_momentum!r}")
        if not (isinstance(self.bn_epsilon, numbers.Real) and 0.0 < self.bn_epsilon < math.inf):
            raise ValueError(f"bn_epsilon must be a positive real, got {self.bn_epsilon!r}")


def _cell_class(config: ArchConfig):
    return GruCell if config.cell_kind == GRU else LstmCell


def parameter_manifest(config: ArchConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) list of every tensor the model allocates.

    This ordering is the checkpoint blob order and the initializer draw
    order: conv blocks in network order (kernels, bias, gamma, beta, moving
    mean, moving var), then the recurrent cell matrices gate by gate, then
    the dense head.
    """
    manifest: list[tuple[str, tuple[int, ...]]] = []
    c_in = 1
    for i, (f, k) in enumerate(zip(config.conv_filters, config.conv_kernels)):
        manifest.append((f"conv{i}.kernels", (k, c_in, f)))
        manifest += [(f"conv{i}.{name}", (f,)) for name in
                     ("bias", "bn_gamma", "bn_beta", "bn_moving_mean", "bn_moving_var")]
        c_in = f
    length, hidden = config.series_length, config.hidden_size
    shapes = {"W": (length, hidden), "U": (hidden, hidden), "b": (hidden,)}
    manifest += [(f"cell.{f.name}", shapes[f.name[0]]) for f in fields(_cell_class(config))]
    feat = config.conv_filters[-1] + hidden
    manifest += [("head.W", (feat, config.num_classes)),
                 ("head.b", (config.num_classes,))]
    return manifest


def parameter_count(config: ArchConfig) -> int:
    """Total element count over every allocated tensor, moving statistics
    included."""
    return sum(int(np.prod(shape)) for _, shape in parameter_manifest(config))


@dataclass
class GruFcnModel:
    config: ArchConfig
    blocks: list[ConvBlock]
    cell: GruCell | LstmCell
    head: DenseSoftmax

    def _tensors(self):
        """(manifest name, owning layer, field name) in manifest order."""
        for name, _ in parameter_manifest(self.config):
            owner, attr = name.split(".")
            yield name, (self.blocks[int(owner[len("conv"):])] if owner.startswith("conv")
                         else getattr(self, owner)), attr

    def parameters(self) -> dict[str, np.ndarray]:
        """name -> array views in checkpoint manifest order."""
        return {name: getattr(part, attr) for name, part, attr in self._tensors()}

    def trainable_parameters(self) -> dict[str, np.ndarray]:
        """The parameters() that their layer's TRAINED declaration names."""
        return {name: getattr(part, attr) for name, part, attr in self._tensors()
                if attr in part.TRAINED}


def _assemble(config: ArchConfig, tensors: dict[str, np.ndarray]) -> GruFcnModel:
    """The model whose parameters() are the given manifest-named arrays."""
    parts: dict[str, dict[str, np.ndarray]] = {}
    for name, arr in tensors.items():
        owner, attr = name.split(".")
        parts.setdefault(owner, {})[attr] = arr
    blocks = [ConvBlock(**parts[f"conv{i}"], bn_momentum=config.bn_momentum,
                        bn_epsilon=config.bn_epsilon)
              for i in range(len(config.conv_filters))]
    return GruFcnModel(config=config, blocks=blocks,
                       cell=_cell_class(config)(**parts["cell"]),
                       head=DenseSoftmax(**parts["head"]))


def _initial_value(rng: np.random.Generator, name: str, shape: tuple[int, ...]) -> np.ndarray:
    if name.endswith(".kernels"):
        return he_uniform_init(rng, shape[0] * shape[1], shape)
    if len(shape) == 2:
        return glorot_uniform_init(rng, shape[0], shape[1], shape)
    if name.endswith((".bn_gamma", ".bn_moving_var")):
        return np.ones(shape)
    return np.zeros(shape)


def build(config: ArchConfig, rng: np.random.Generator | None = None) -> GruFcnModel:
    """Allocate and initialize the model, drawing in manifest order.

    Conv kernels are He-uniform with fan_in = k * Cin; recurrent and dense
    weights are glorot-uniform; every bias starts at zero; batch-norm starts
    as the identity (gamma 1, beta 0, moving mean 0, moving var 1).
    """
    if rng is None:
        rng = Rng(config.seed)
    return _assemble(config, {name: _initial_value(rng, name, shape)
                              for name, shape in parameter_manifest(config)})


def forward(model: GruFcnModel, batch: np.ndarray, training: bool = False,
            rng: np.random.Generator | None = None):
    """Class probabilities for a (B, L) batch; returns (probs, cache).

    The conv branch sees each series as L positions x 1 channel; the
    recurrent branch sees the dimension-shuffled series as one time step of
    L features, started from a zero state, followed by dropout. Only a
    training-mode cache holds the layer state that backward needs.
    `layers.conv_branch` bounds the conv branch's memory at inference.

    A non-finite input, or non-finite pooled conv features, raises
    FloatingPointError: NaN survives the ReLU and +Inf the pooling, so every
    non-finite block output is caught without a check per block.
    """
    batch = np.asarray(batch, dtype=np.float64)
    config = model.config
    if batch.ndim != 2 or batch.shape[1] != config.series_length:
        raise ValueError(
            f"batch shape {batch.shape} does not match series length "
            f"{config.series_length}"
        )
    if not np.all(np.isfinite(batch)):
        raise FloatingPointError("non-finite value in the input batch")
    pooled, conv_caches = layers.conv_branch(model.blocks, batch[:, :, None], training)
    if not np.all(np.isfinite(pooled)):
        raise FloatingPointError("non-finite conv-branch features: the weights overflowed")

    step = layers.gru_step if config.cell_kind == GRU else layers.lstm_step
    h, cell_cache = step(model.cell, batch)
    h_dropped, mask = layers.dropout(h, config.dropout_rate, training, rng)

    features = np.concatenate([pooled, h_dropped], axis=1)
    probs = layers.dense_softmax(model.head, features)
    cache = {"features": features, "probs": probs}
    if training:
        cache.update(conv_caches=conv_caches, cell_cache=cell_cache, dropout_mask=mask)
    return probs, cache


def backward(model: GruFcnModel, cache, y_onehot: np.ndarray):
    """Mean cross-entropy loss and its gradients w.r.t. trainable_parameters(),
    keyed by manifest name, from a training-mode forward cache. A training
    cache serves one backward, which empties the conv blocks' caches to
    free their activations as it goes, writes each block's output gradient
    over the one it is handed, and recomputes block 0's conv output, which
    the cache does not keep (layers.conv_branch_backward); a second raises
    ValueError."""
    if "conv_caches" not in cache:
        raise ValueError("backward needs the cache of a training-mode forward pass; "
                         "an inference-mode pass keeps no backward state")
    if not cache["conv_caches"]:
        raise ValueError("this training cache was already used by a backward pass; "
                         "run a new training-mode forward")
    y = np.asarray(y_onehot, dtype=np.float64)
    probs = cache["probs"]
    loss = float(np.mean(layers.cross_entropy(probs, y)))
    dfeat, head_grads = layers.dense_softmax_backward(model.head, cache["features"], probs, y)
    grads = {f"head.{name}": g for name, g in head_grads.items()}

    n_fcn = model.config.conv_filters[-1]
    dpooled = dfeat[:, :n_fcn]
    dh = dfeat[:, n_fcn:] * cache["dropout_mask"]

    cell_backward = (layers.gru_backward if model.config.cell_kind == GRU
                     else layers.lstm_backward)
    for name, g in cell_backward(cache["cell_cache"], dh).items():
        grads[f"cell.{name}"] = g

    for i, block_grads in enumerate(layers.conv_branch_backward(cache["conv_caches"], dpooled)):
        for name, g in block_grads.items():
            grads[f"conv{i}.{name}"] = g
    return loss, grads


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

def write_atomic(path, parts) -> None:
    """Write parts (bytes-like objects) to a temp file, fsync it, and move it
    over path, so a failed write leaves any earlier file at path intact."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(model: GruFcnModel, path) -> None:
    """Single-file format: magic, one JSON header line (config + ordered
    tensor manifest), then all tensors as little-endian float32 in manifest
    order, written with write_atomic. A tensor that is not finite in float32
    raises CheckpointError before anything is written."""
    params = model.parameters()
    with np.errstate(over="ignore"):  # an overflow is reported by name below
        blobs = {name: arr.astype("<f4") for name, arr in params.items()}
    for name, blob in blobs.items():
        if not np.all(np.isfinite(blob)):
            raise CheckpointError(f"{path}: checkpoint tensor {name} overflows float32 "
                                  f"or holds NaN")
    manifest = [[name, list(arr.shape)] for name, arr in params.items()]
    header = json.dumps({"config": asdict(model.config), "manifest": manifest})
    write_atomic(path, [CHECKPOINT_MAGIC, header.encode("utf-8") + b"\n", *blobs.values()])


def load_checkpoint(path) -> GruFcnModel:
    """The model saved at path; a malformed file raises CheckpointError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad checkpoint magic {magic!r}")
        rest = fh.read()
    newline = rest.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: checkpoint header line is incomplete")
    try:
        header = json.loads(rest[:newline].decode("utf-8"))
        cfg_dict = dict(header["config"])
        manifest = [(name, tuple(shape)) for name, shape in header["manifest"]]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint header: {exc}") from exc
    keys = {f.name for f in fields(ArchConfig)}
    if set(cfg_dict) != keys:
        raise CheckpointError(
            f"{path}: checkpoint config keys differ from the architecture's: "
            f"unknown {sorted(set(cfg_dict) - keys)}, missing {sorted(keys - set(cfg_dict))}"
        )
    try:
        config = ArchConfig(**cfg_dict)
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"{path}: invalid checkpoint config: {exc}") from exc
    # a header size need only equal the config's (3.0 == 3), so shapes come from the config
    expected = parameter_manifest(config)
    if manifest != expected:
        raise CheckpointError(f"{path}: checkpoint manifest does not match the declared "
                              f"architecture")
    blob = rest[newline + 1:]
    total = sum(math.prod(s) for _, s in expected)  # exact, where np.prod wraps at 2**63
    if len(blob) != 4 * total:
        raise CheckpointError(f"{path}: parameter payload holds {len(blob)} bytes, "
                              f"manifest needs {4 * total}")
    tensors = {}
    offset = 0
    for name, shape in expected:
        n = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=offset)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: checkpoint tensor {name} holds NaN or Inf")
        tensors[name] = arr.astype(np.float64).reshape(shape)
        offset += 4 * n
    return _assemble(config, tensors)
