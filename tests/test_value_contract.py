"""Every constructor checks its own numbers by one rule: a number is a Python
or numpy int or float, never a bool or a string.

Each field below is replaced in turn, in a valid set of arguments, by a
value that ``float()`` or ``int()`` would take. The constructor must raise
``ValueError`` naming the field. The same field given as numpy ints or
floats must be accepted.
"""

import numpy as np
import pytest

from vpcalib.calibration import (
    CameraCalibration,
    CameraIntrinsics,
    PairSet,
    VanishingPointCalibrator,
    VPPair,
)
from vpcalib.evaluation import DistanceMeasurement
from vpcalib.heatmap import Heatmap, HeatmapCodec
from vpcalib.pipeline import PipelineConfig
from vpcalib.synthetic import AugmentationParams, SceneSpec

# constructor, valid arguments (integral, so that numpy ints may stand for
# them) and, per numeric field, its kind: "int", "real" or "array"
CONSTRUCTORS = [
    (CameraIntrinsics, {"f": 1000.0, "principal_point": [960, 540]},
     {"f": "real", "principal_point": "array"}),
    (CameraCalibration,
     {"intrinsics": CameraIntrinsics(1000.0, [960, 540]), "horizon": [0, -1, 300],
      "plane_normal": [0, 1, 1], "delta": 1.0, "n_pairs_used": 7, "n_pairs_rejected": 0},
     {"horizon": "array", "plane_normal": "array", "delta": "real", "n_pairs_used": "int",
      "n_pairs_rejected": "int"}),
    (DistanceMeasurement, {"a": [100, 800], "b": [300, 900], "ground_truth": 5.0},
     {"a": "array", "b": "array", "ground_truth": "real"}),
    (HeatmapCodec, {"resolution": 8, "scales": [1, 2], "sigma": 1.0, "peak_ratio": 1.0},
     {"resolution": "int", "scales": "array", "sigma": "real", "peak_ratio": "real"}),
    (Heatmap, {"values": [[0, 1], [1, 0]], "scale": 1.0},
     {"values": "array", "scale": "real"}),
    (PipelineConfig,
     {"frame_stride": 10, "max_frames": 1500, "max_boxes_per_frame": 10, "static_iou": 1.0,
      "static_min_hits": 3, "peak_ratio": 1.0, "min_pairs": 5, "image_size": [1920, 1080],
      "principal_point": [960, 540]},
     {"frame_stride": "int", "max_frames": "int", "max_boxes_per_frame": "int",
      "static_iou": "real", "static_min_hits": "int", "peak_ratio": "real", "min_pairs": "int",
      "image_size": "array",
      "principal_point": "array"}),
    (SceneSpec,
     {"seed": 1, "n_vehicles": 5, "f": 1200.0, "tilt_deg": 25.0, "roll_deg": 2.0,
      "image_size": [1920, 1080], "noise_sigma_px": 0.0, "outlier_fraction": 0.0,
      "n_measurements": 10, "camera_height": 10.0},
     {"seed": "int", "n_vehicles": "int", "f": "real", "tilt_deg": "real", "roll_deg": "real",
      "image_size": "array", "noise_sigma_px": "real", "outlier_fraction": "real",
      "n_measurements": "int", "camera_height": "real"}),
    (VPPair, {"first": [3, 4], "second": [-5, 6]}, {"first": "array", "second": "array"}),
    (PairSet, {"first": [[1, 2]], "second": [[3, 4]]}, {"first": "array", "second": "array"}),
    (AugmentationParams, {"corner_sigma": 12.0, "bbox_jitter": 5.0, "flip_prob": 1.0, "rng_seed": 0},
     {"corner_sigma": "real", "bbox_jitter": "real", "flip_prob": "real", "rng_seed": "int"}),
]

# the name an error message gives a field, where it is not the field's own
NAMED = {(DistanceMeasurement, "ground_truth"): "distance"}

FIELDS = [(cls, base, field, kind) for cls, base, kinds in CONSTRUCTORS
          for field, kind in kinds.items()]
IDS = [f"{cls.__name__}.{field}" for cls, _, field, _ in FIELDS]


def _numpy_forms(value, kind):
    """``value`` as numpy ints and as numpy floats, in the forms a field of ``kind`` takes."""
    if kind == "int":
        return [np.int64(value), np.int32(value)]
    if kind == "real":
        return [np.int64(value), np.float32(value), np.float64(value)]
    return [np.array(value, dtype=np.int64), np.array(value, dtype=np.float32),
            np.vectorize(np.float32, otypes=[object])(np.array(value)).tolist()]


@pytest.mark.parametrize("cls, base, field, kind", FIELDS, ids=IDS)
def test_one_rule_for_every_number(cls, base, field, kind):
    for bad in ("1", True, np.True_, [1, True]):
        with pytest.raises(ValueError, match=NAMED.get((cls, field), field)):
            cls(**{**base, field: bad})
    for value in _numpy_forms(base[field], kind):
        cls(**{**base, field: value})


# flags: a Python or numpy bool, or for a mask a bool array or a sequence of them
@pytest.mark.parametrize("cls, base", [
    (VPPair, {"first": [3, 4], "second": [-5, 6], "first_is_direction": True,
              "second_is_direction": False}),
    (PairSet, {"first": [[3, 4]], "second": [[-5, 6]], "first_is_direction": [True],
               "second_is_direction": [False]}),
], ids=["VPPair", "PairSet"])
@pytest.mark.parametrize("field", ["first_is_direction", "second_is_direction"])
def test_one_rule_for_every_flag(cls, base, field):
    mask = cls is PairSet
    for bad in ("no", 1, 0.0, None, np.int64(1)):
        with pytest.raises(ValueError, match=field):
            cls(**{**base, field: [bad] if mask else bad})
    if mask:
        for bad in (np.array([1]), np.array(["no"]), np.array([1.0])):
            with pytest.raises(ValueError, match=field):
                cls(**{**base, field: bad})
    for flag in (True, np.True_, False, np.False_):
        built = cls(**{**base, field: [flag] if mask else flag})
        assert getattr(built, field) == flag
    if mask:
        assert cls(**{**base, field: np.array([True])}).first_is_direction.dtype == bool


def test_pair_set_takes_its_numbers_as_the_rule_says():
    # a bool in a point would build a pair at (1, 1)
    with pytest.raises(ValueError, match="first must be"):
        PairSet([[1, True]], [[3, 4]])
    # the estimator's (n, 4) array path goes through the same check
    fit = VanishingPointCalibrator(image_size=(1920, 1080), min_pairs=1).fit
    with pytest.raises(ValueError, match="X must be"):
        fit([[1, 2, 3, True]])
    with pytest.raises(ValueError, match="X must be"):
        fit([["1", 2, 3, 4]])
