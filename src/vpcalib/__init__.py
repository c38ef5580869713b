"""vpcalib: traffic camera auto-calibration from vehicle vanishing points.

Per-vehicle pairs of orthogonal vanishing points (heading and axle
directions) determine a traffic camera's focal length, the horizon line, and
the road-plane orientation. The package provides the projective machinery,
the bounded diamond-space heatmap codec used to represent vanishing points on
finite grids, robust median aggregation into a calibration, a scale-free
ratio-error evaluation, a synthetic-scene oracle, and a file-based pipeline
CLI.
"""

from .calibration import (
    CameraCalibration,
    CameraIntrinsics,
    VanishingPointCalibrator,
    VPPair,
    calibrate,
    estimate_focal,
    estimate_horizon,
    focal_from_pair,
    plane_normal_from_horizon,
    project_to_plane,
)
from .evaluation import (
    CalibrationReport,
    DistanceMeasurement,
    evaluate,
    measured_distance,
    ratio_error,
)
from .heatmap import (
    DEFAULT_SCALES,
    BBox,
    Heatmap,
    HeatmapCodec,
    VPDetection,
    bbox_denormalize,
    bbox_normalize,
    decode_heatmap,
    decode_stack,
    diamond_to_pixel,
    encode_vp,
    pixel_to_diamond,
    select_vp,
)
from .heatmap_io import read_heatmap_arrays, read_heatmap_file, write_heatmap_file
from .pipeline import PipelineConfig, filter_detections, run_calibration, run_evaluation
from .projective import (
    from_diamond,
    line_through,
    projectively_equal,
    scale_point,
    to_diamond,
)
from .synthetic import (
    AugmentationParams,
    SceneSpec,
    SyntheticCamera,
    SyntheticVehicle,
    augment,
    generate_scene,
    vehicle_vps,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentationParams",
    "BBox",
    "CalibrationReport",
    "CameraCalibration",
    "CameraIntrinsics",
    "DEFAULT_SCALES",
    "DistanceMeasurement",
    "Heatmap",
    "HeatmapCodec",
    "PipelineConfig",
    "SceneSpec",
    "SyntheticCamera",
    "SyntheticVehicle",
    "VPDetection",
    "VPPair",
    "VanishingPointCalibrator",
    "augment",
    "bbox_denormalize",
    "bbox_normalize",
    "calibrate",
    "decode_heatmap",
    "decode_stack",
    "diamond_to_pixel",
    "encode_vp",
    "estimate_focal",
    "estimate_horizon",
    "evaluate",
    "filter_detections",
    "focal_from_pair",
    "from_diamond",
    "generate_scene",
    "line_through",
    "measured_distance",
    "pixel_to_diamond",
    "plane_normal_from_horizon",
    "project_to_plane",
    "projectively_equal",
    "ratio_error",
    "read_heatmap_arrays",
    "read_heatmap_file",
    "run_calibration",
    "run_evaluation",
    "scale_point",
    "select_vp",
    "to_diamond",
    "vehicle_vps",
    "write_heatmap_file",
]
