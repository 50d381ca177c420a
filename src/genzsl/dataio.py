"""Dataset container, synthetic benchmark generator, and on-disk formats.

A dataset lives in a directory: one JSON manifest (dims, counts, split mode,
file names) plus one matrix file per field. Matrix files carry the magic
bytes "ZSLD", a u16 format version, u32 row and column counts, then
row-major little-endian float32 payloads; values are widened to float64 in
memory, so a save/load round trip is the identity after the first
narrowing. Fields whose manifest entry ends in ".csv" are parsed as plain
comma-separated rows instead, which keeps tiny hand-written fixtures easy.

Checkpoints reuse the same container: a manifest with the architecture,
head flags, and a config snapshot, plus one matrix file per named parameter
tensor.

All randomness flows through numpy's Philox engine, a counter-based
generator with published test vectors, so equal seeds reproduce identical
datasets across platforms.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import diffmath as dm
from . import model as mo
from .errors import DataFormatError, ValidationError

MATRIX_MAGIC = b"ZSLD"
MATRIX_VERSION = 1
DATASET_VERSION = 1
CHECKPOINT_VERSION = 1

SYNTHETIC_SPLITS = ("easy", "hard")       # the splits `make_synthetic` draws
SPLIT_MODES = (*SYNTHETIC_SPLITS, "custom")


def philox(seed: int, tag: int = 0, sub: int = 0) -> np.random.Generator:
    """The toolkit's named random stream: a Philox engine whose 128-bit key
    is (seed, tag * 2^32 + sub). Every consumer passes a distinct purpose
    tag so streams never collide, and equal inputs reproduce equal streams
    on any platform."""
    if not (0 <= tag < 2**32 and 0 <= sub < 2**32):
        raise ValidationError("stream tags must fit in 32 bits")
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64((tag << 32) | sub)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class ZslDataset:
    seen_features: np.ndarray        # (N_s, visual_dim)
    seen_labels: np.ndarray          # (N_s,) in [0, k_seen)
    seen_semantics: np.ndarray       # (k_seen, semantic_dim)
    unseen_semantics: np.ndarray     # (k_unseen, semantic_dim)
    unseen_test_features: np.ndarray
    unseen_test_labels: np.ndarray   # in [k_seen, k_seen + k_unseen)
    seen_test_features: np.ndarray
    seen_test_labels: np.ndarray     # in [0, k_seen)
    split_mode: str = "custom"

    @property
    def k_seen(self) -> int:
        return self.seen_semantics.shape[0]

    @property
    def k_unseen(self) -> int:
        return self.unseen_semantics.shape[0]

    @property
    def visual_dim(self) -> int:
        return self.seen_features.shape[1]

    @property
    def semantic_dim(self) -> int:
        return self.seen_semantics.shape[1]

    def validate(self) -> "ZslDataset":
        for name in ("seen_features", "seen_semantics", "unseen_semantics",
                     "unseen_test_features", "seen_test_features"):
            arr = getattr(self, name)
            if arr.ndim != 2:
                raise ValidationError(f"{name} must be a matrix")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
        if self.split_mode not in SPLIT_MODES:
            raise ValidationError(f"unknown split_mode {self.split_mode!r}")
        if self.unseen_semantics.shape[1] != self.semantic_dim:
            raise ValidationError("semantic widths differ between seen and unseen")
        for feats, name in ((self.unseen_test_features, "unseen_test_features"),
                            (self.seen_test_features, "seen_test_features")):
            if feats.shape[1] != self.visual_dim:
                raise ValidationError(f"{name} width differs from seen_features")
        if len(self.seen_labels) != len(self.seen_features):
            raise ValidationError("seen label count differs from feature count")
        if len(self.unseen_test_labels) != len(self.unseen_test_features):
            raise ValidationError("unseen test label count differs from feature count")
        if len(self.seen_test_labels) != len(self.seen_test_features):
            raise ValidationError("seen test label count differs from feature count")
        k_s, k_u = self.k_seen, self.k_unseen
        if np.any((self.seen_labels < 0) | (self.seen_labels >= k_s)):
            raise ValidationError("seen labels out of range")
        if np.any((self.seen_test_labels < 0) | (self.seen_test_labels >= k_s)):
            raise ValidationError("seen test labels out of range")
        # seen and unseen label sets are disjoint: unseen ids start at k_seen
        if np.any((self.unseen_test_labels < k_s) | (self.unseen_test_labels >= k_s + k_u)):
            raise ValidationError("unseen test labels overlap the seen range "
                                  f"[0, {k_s}) or exceed {k_s + k_u}")
        counts = np.bincount(self.seen_labels.astype(int), minlength=k_s)
        if np.any(counts == 0):
            raise ValidationError(f"seen classes without training examples: "
                                  f"{np.flatnonzero(counts == 0).tolist()}")
        return self

    def class_means(self) -> np.ndarray:
        """Per-seen-class mean of the training features."""
        means = np.zeros((self.k_seen, self.visual_dim))
        for k in range(self.k_seen):
            means[k] = self.seen_features[self.seen_labels == k].mean(axis=0)
        return means


@dataclass(frozen=True)
class SyntheticSpec:
    k_seen: int = 8
    k_unseen: int = 4
    visual_dim: int = 32
    semantic_dim: int = 16
    samples_per_class: int = 200
    cluster_spread: float = 0.15
    semantic_noise: float = 0.0
    split_mode: str = "easy"
    seed: int = 0

    def __post_init__(self):
        for name in ("k_seen", "k_unseen", "visual_dim", "semantic_dim", "samples_per_class"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        if self.k_seen < 2:
            raise ValidationError("need at least 2 seen classes")
        if self.cluster_spread < 0 or self.semantic_noise < 0:
            raise ValidationError("noise scales must be non-negative")
        if self.split_mode not in SYNTHETIC_SPLITS:
            raise ValidationError("split_mode must be easy or hard")


EASY_PARENT_OFFSET = 0.5  # per-coordinate scale of unseen-prototype perturbations


def make_synthetic(spec: SyntheticSpec) -> ZslDataset:
    """Isotropic Gaussian class clusters with linearly mapped descriptors.

    Every class has a visual prototype; samples are prototype plus isotropic
    noise, and the class descriptor is a fixed random linear image of the
    prototype plus optional noise. Easy mode perturbs seen prototypes to
    place the unseen ones nearby; hard mode banishes unseen prototypes to a
    randomly chosen orthant that random seen prototypes essentially never
    reach.
    """
    rng = philox(spec.seed, 0xDA7A)
    d_v, d_s = spec.visual_dim, spec.semantic_dim

    semantic_map = rng.normal(0.0, 1.0 / math.sqrt(d_v), size=(d_v, d_s))
    seen_proto = rng.standard_normal((spec.k_seen, d_v))

    if spec.split_mode == "easy":
        parents = rng.permutation(spec.k_seen)
        parents = np.resize(parents, spec.k_unseen)
        unseen_proto = seen_proto[parents] + EASY_PARENT_OFFSET * rng.standard_normal(
            (spec.k_unseen, d_v))
    else:
        orthant = np.where(rng.uniform(size=d_v) < 0.5, -1.0, 1.0)
        unseen_proto = np.abs(rng.standard_normal((spec.k_unseen, d_v))) * orthant

    def descriptors(protos):
        noise = spec.semantic_noise * rng.standard_normal((len(protos), d_s))
        return protos @ semantic_map + noise

    seen_semantics = descriptors(seen_proto)
    unseen_semantics = descriptors(unseen_proto)

    def cluster(protos, per_class):
        feats = np.vstack([
            p + spec.cluster_spread * rng.standard_normal((per_class, d_v)) for p in protos
        ])
        labels = np.repeat(np.arange(len(protos)), per_class)
        return feats, labels

    n_test = max(2, spec.samples_per_class // 4)
    seen_features, seen_labels = cluster(seen_proto, spec.samples_per_class)
    seen_test_features, seen_test_labels = cluster(seen_proto, n_test)
    unseen_test_features, unseen_test_labels = cluster(unseen_proto, n_test)

    return ZslDataset(
        seen_features=seen_features,
        seen_labels=seen_labels,
        seen_semantics=seen_semantics,
        unseen_semantics=unseen_semantics,
        unseen_test_features=unseen_test_features,
        unseen_test_labels=unseen_test_labels + spec.k_seen,
        seen_test_features=seen_test_features,
        seen_test_labels=seen_test_labels,
        split_mode=spec.split_mode,
    ).validate()


# ---------------------------------------------------------------------------
# matrix files


def write_matrix(path: str, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    payload = arr.astype("<f4").tobytes(order="C")
    header = MATRIX_MAGIC + struct.pack("<HII", MATRIX_VERSION, arr.shape[0], arr.shape[1])
    _write_atomic(path, header + payload)


def read_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read matrix file {path}: {exc}") from exc
    if path.endswith(".csv"):
        return _parse_csv_matrix(path, data)
    if len(data) < 14 or data[:4] != MATRIX_MAGIC:
        raise DataFormatError(f"{path}: not a ZSLD matrix file")
    version, rows, cols = struct.unpack("<HII", data[4:14])
    if version != MATRIX_VERSION:
        raise DataFormatError(f"{path}: unsupported matrix version {version}")
    expected = 14 + 4 * rows * cols
    if len(data) != expected:
        raise DataFormatError(
            f"{path}: truncated or oversized payload ({len(data)} bytes, expected {expected})"
        )
    flat = np.frombuffer(data, dtype="<f4", offset=14)
    return flat.astype(np.float64).reshape(rows, cols)


def _parse_csv_matrix(path: str, data: bytes) -> np.ndarray:
    try:
        rows = [
            [float(cell) for cell in line.split(",")]
            for line in data.decode("utf-8").strip().splitlines()
            if line.strip()
        ]
    except ValueError as exc:
        raise DataFormatError(f"{path}: unparsable CSV matrix: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise DataFormatError(f"{path}: ragged or empty CSV matrix")
    # storage precision is float32 regardless of the container
    return np.asarray(rows, dtype=np.float32).astype(np.float64)


def _write_atomic(path: str, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then rename it over
    `path`: a failed write leaves the old file whole."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_json_atomic(path: str, payload: dict) -> None:
    _write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _read_manifest(directory: str, expected_format: str) -> dict:
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"missing manifest: {exc}") from exc
    except ValueError as exc:  # malformed JSON or UTF-8
        raise DataFormatError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{path}: manifest must be a JSON object")
    if manifest.get("format") != expected_format:
        raise DataFormatError(f"{path}: expected format {expected_format!r}, "
                              f"got {manifest.get('format')!r}")
    return manifest


# ---------------------------------------------------------------------------
# dataset container

_DATASET_FIELDS = (
    "seen_features", "seen_labels", "seen_semantics", "unseen_semantics",
    "unseen_test_features", "unseen_test_labels", "seen_test_features",
    "seen_test_labels",
)
_LABEL_FIELDS = {"seen_labels", "unseen_test_labels", "seen_test_labels"}


def save_dataset(dataset: ZslDataset, directory: str) -> list[str]:
    """Writes the matrix files, then the manifest; returns their paths."""
    dataset.validate()
    os.makedirs(directory, exist_ok=True)
    files, paths = {}, []
    for name in _DATASET_FIELDS:
        files[name] = f"{name}.zsld"
        paths.append(os.path.join(directory, files[name]))
        write_matrix(paths[-1], getattr(dataset, name))
    manifest = {
        "format": "zsl-dataset",
        "version": DATASET_VERSION,
        "split_mode": dataset.split_mode,
        "dims": {"visual": dataset.visual_dim, "semantic": dataset.semantic_dim},
        "counts": {
            "k_seen": dataset.k_seen,
            "k_unseen": dataset.k_unseen,
            "n_seen": len(dataset.seen_features),
            "n_seen_test": len(dataset.seen_test_features),
            "n_unseen_test": len(dataset.unseen_test_features),
        },
        "files": files,
    }
    paths.append(os.path.join(directory, "manifest.json"))
    _write_json_atomic(paths[-1], manifest)
    return paths


def load_dataset(directory: str) -> ZslDataset:
    manifest = _read_manifest(directory, "zsl-dataset")
    if manifest.get("version") != DATASET_VERSION:
        raise DataFormatError(f"unsupported dataset version {manifest.get('version')}")
    files = manifest.get("files", {})
    counts = manifest.get("counts", {})
    if not isinstance(files, dict) or not isinstance(counts, dict):
        raise DataFormatError("manifest 'files' and 'counts' must be objects")
    fields = {}
    for name in _DATASET_FIELDS:
        if not isinstance(files.get(name), str):
            raise DataFormatError(f"manifest lists no file name for field {name!r}")
        arr = read_matrix(os.path.join(directory, files[name]))
        if name in _LABEL_FIELDS:
            if arr.shape[1] != 1:
                raise DataFormatError(f"{files[name]}: label files must have one column")
            labels = arr[:, 0]
            # float32 holds every integer up to 2^24 exactly
            if not np.all((labels == np.round(labels)) & (np.abs(labels) <= 2**24)):
                raise DataFormatError(f"{files[name]}: labels must be integers up to 2^24")
            arr = labels.astype(np.int64)
        fields[name] = arr
    dataset = ZslDataset(split_mode=manifest.get("split_mode", "custom"), **fields)
    declared = (counts.get("k_seen"), counts.get("n_seen"))
    if declared != (dataset.k_seen, len(dataset.seen_features)):
        raise DataFormatError(
            f"manifest counts {declared} disagree with matrix shapes "
            f"({dataset.k_seen}, {len(dataset.seen_features)})"
        )
    return dataset.validate()


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: mo.ModelParams, config_snapshot: dict, directory: str) -> list[str]:
    """One matrix file per named tensor plus a manifest carrying the
    architecture, head flags, and the full config snapshot; returns the
    paths written, the manifest last."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    groups = {
        "gen": params.generator.store,
        "disc": params.discriminator.store,
        "div": params.divergence,
    }
    tensors = {}
    index = 0
    for prefix, store in groups.items():
        for name, value in store.items():
            fname = f"t{index:03d}.zsld"
            paths.append(os.path.join(directory, fname))
            write_matrix(paths[-1], np.atleast_2d(value))
            tensors[f"{prefix}/{name}"] = {
                "file": fname,
                "shape": list(np.asarray(value).shape),
            }
            index += 1
    manifest = {
        "format": "zsl-checkpoint",
        "version": CHECKPOINT_VERSION,
        "arch": asdict(params.generator.arch),
        "k_seen": params.discriminator.k_seen,
        "segc": params.discriminator.segc,
        "extra_class": params.discriminator.extra_class,
        "config": config_snapshot,
        "tensors": tensors,
    }
    paths.append(os.path.join(directory, "manifest.json"))
    _write_json_atomic(paths[-1], manifest)
    return paths


def _typed(value, kind: type, where: str):
    """`value`, if JSON gave it exactly the type `kind` (no bool is an int)."""
    if type(value) is not kind:
        raise TypeError(f"{where} must be a {kind.__name__}, got {value!r}")
    return value


def load_checkpoint(directory: str):
    """Returns (ModelParams, config snapshot dict). Rejects version drift, a
    malformed manifest and tensors that do not fit the architecture."""
    manifest = _read_manifest(directory, "zsl-checkpoint")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {manifest.get('version')}")
    try:
        for name in mo.WIDTHS:
            if manifest["arch"].get(name) is not None:
                _typed(manifest["arch"][name], int, f"arch.{name}")
        arch = mo.ArchSpec(**manifest["arch"])
        k_seen = _typed(manifest["k_seen"], int, "k_seen")
        segc = _typed(manifest["segc"], bool, "segc")
        extra_class = _typed(manifest["extra_class"], bool, "extra_class")
        tensors = [(key, _typed(entry["file"], str, f"{key} file"),
                    tuple(_typed(n, int, f"{key} shape") for n in entry["shape"]))
                   for key, entry in manifest["tensors"].items()]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataFormatError(f"{directory}: malformed checkpoint manifest "
                              f"({type(exc).__name__}: {exc})") from exc
    pairs = {"gen": [], "disc": [], "div": []}
    for key, fname, shape in tensors:
        prefix, _, name = key.partition("/")
        if prefix not in pairs:
            raise DataFormatError(f"unknown tensor group {prefix!r}")
        arr = read_matrix(os.path.join(directory, fname))
        if arr.size != math.prod(shape) or min(shape, default=0) < 0:
            raise DataFormatError(f"{key}: {fname} holds {arr.size} values, "
                                  f"not the declared shape {list(shape)}")
        if not np.all(np.isfinite(arr)):
            raise DataFormatError(f"{key}: {fname} holds non-finite values")
        pairs[prefix].append((name, arr.reshape(shape)))
    stores = {prefix: dm.ParamStore(items) for prefix, items in pairs.items()}
    # the tensors must be exactly those the architecture and heads define
    layout = mo.init_params(arch, k_seen, segc, np.random.default_rng(0), extra_class)
    for prefix, ref in zip(("gen", "disc"), layout):
        want = {n: v.shape for n, v in ref.store.items()}.items()
        got = {n: v.shape for n, v in stores[prefix].items()}.items()
        if got != want:
            raise DataFormatError(f"{prefix} tensors {sorted(got - want)} do not fit the "
                                  f"architecture, which needs {sorted(want - got)}")
    gen = mo.GeneratorParams(arch, stores["gen"])
    disc = mo.DiscriminatorParams(arch, k_seen, segc, extra_class, stores["disc"])
    return mo.ModelParams(gen, disc, stores["div"]), manifest.get("config", {})
