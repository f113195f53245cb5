"""camtraj: camera trajectory toolkit.

Pose parsing, pixel-wise Plucker ray embeddings, trajectory synthesis,
fidelity metrics, a deterministic multi-scale trajectory encoder, and NPY
tensor serialization, wired together by the ``camtraj`` CLI.
"""

from .geometry import (
    CameraPose,
    Convention,
    Extrinsics,
    Intrinsics,
    Trajectory,
    relativize,
    rotation_about_axis,
)
from .metrics import AlignmentReport, evaluate, normalize_scale, rot_err, trans_err
from .plucker import camera_center, plucker_sequence, ray_direction
from .pose_io import (
    PoseFile,
    PoseRecord,
    parse_pose_file,
    parse_trajectory_spec,
    serialize_pose_file,
    to_trajectory,
    trajectory_from_json,
    trajectory_to_json,
)
from .synth import (
    MotionDirective,
    MotionKind,
    SynthesisPlan,
    compose_motions,
    scale_intensity,
    synth_rotation,
    synthesize,
)
from .encoder import (
    EncoderConfig,
    encoder_forward,
    pixel_unshuffle,
    shape_schedule,
    temporal_attention_block,
)
from .npyio import read_npy, read_npy_file, write_npy, write_npy_file

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "CameraPose",
    "Convention",
    "EncoderConfig",
    "Extrinsics",
    "Intrinsics",
    "MotionDirective",
    "MotionKind",
    "PoseFile",
    "PoseRecord",
    "SynthesisPlan",
    "Trajectory",
    "camera_center",
    "compose_motions",
    "encoder_forward",
    "evaluate",
    "normalize_scale",
    "parse_pose_file",
    "parse_trajectory_spec",
    "pixel_unshuffle",
    "plucker_sequence",
    "ray_direction",
    "read_npy",
    "read_npy_file",
    "relativize",
    "rot_err",
    "rotation_about_axis",
    "scale_intensity",
    "serialize_pose_file",
    "shape_schedule",
    "synth_rotation",
    "synthesize",
    "temporal_attention_block",
    "to_trajectory",
    "trajectory_from_json",
    "trajectory_to_json",
    "trans_err",
    "write_npy",
    "write_npy_file",
]
