"""voxgs: lossless codec and rate toolkit for voxelized Gaussian-splat anchor clouds."""

from .container import (
    analyze_container,
    decode_container,
    dequantize_cloud,
    encode_container,
    generate_synthetic,
    quantize_cloud,
    read_anchor_file,
    write_anchor_file,
)
from .errors import (
    AnchorFileError,
    CorrelationUndefinedError,
    CorruptStreamError,
    VoxgsError,
)
from .geometry import (
    OctreePayload,
    morton_decode,
    morton_encode,
    octree_decode,
    octree_encode,
    sort_by_morton,
)
from .model import (
    AnchorCloud,
    AttributeLayout,
    FloatAnchorCloud,
    QuantParams,
    ValidationReport,
    validate,
)
from .quantize import dequantize_features, quantize_features, quantize_positions, ste_round
from .rate import (
    CalibrationResult,
    LaplaceModel,
    RateReport,
    calibrate_alpha,
    estimate_bits,
    fit_laplace,
    interval_prob,
)
from .rlc import RlcStream, decode_attributes, encode_attributes, rlc_decode, rlc_encode
from .sandbox import SandboxScene, TrainTrace, make_scene, run, step

__version__ = "0.1.0"

__all__ = [
    "AnchorCloud",
    "AnchorFileError",
    "AttributeLayout",
    "CalibrationResult",
    "CorrelationUndefinedError",
    "CorruptStreamError",
    "FloatAnchorCloud",
    "LaplaceModel",
    "OctreePayload",
    "QuantParams",
    "RateReport",
    "RlcStream",
    "SandboxScene",
    "TrainTrace",
    "ValidationReport",
    "VoxgsError",
    "analyze_container",
    "calibrate_alpha",
    "decode_attributes",
    "decode_container",
    "dequantize_cloud",
    "dequantize_features",
    "encode_attributes",
    "encode_container",
    "estimate_bits",
    "fit_laplace",
    "generate_synthetic",
    "interval_prob",
    "make_scene",
    "morton_decode",
    "morton_encode",
    "octree_decode",
    "octree_encode",
    "quantize_cloud",
    "quantize_features",
    "quantize_positions",
    "read_anchor_file",
    "rlc_decode",
    "rlc_encode",
    "run",
    "sort_by_morton",
    "step",
    "ste_round",
    "validate",
    "write_anchor_file",
]
