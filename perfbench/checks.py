"""Output checks and accuracy against the oracle.

The oracle is computed here from the scene spec, independently of
``vpcalib.synthetic``: the camera looks along world +y, is tilted down by
``tilt_deg`` and rolled by ``roll_deg``, so the road normal in camera
coordinates is the third column of the world-to-camera rotation.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_BASE = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
# SceneSpec defaults, used when the workload's scene does not override them
_DEFAULTS = {"f": 1200.0, "tilt_deg": 25.0, "roll_deg": 2.0, "image_size": (1920.0, 1080.0)}


def oracle(scene: dict) -> dict:
    """Exact focal length, principal point and unit road normal of a scene."""
    s = {**_DEFAULTS, **scene}
    t, r = np.radians(s["tilt_deg"]), np.radians(s["roll_deg"])
    rot_x = np.array([[1, 0, 0], [0, np.cos(t), -np.sin(t)], [0, np.sin(t), np.cos(t)]])
    rot_z = np.array([[np.cos(r), -np.sin(r), 0], [np.sin(r), np.cos(r), 0], [0, 0, 1]])
    rotation = rot_z @ rot_x @ _BASE
    w, h = s["image_size"]
    return {
        "f": float(s["f"]),
        "principal_point": np.array([w / 2.0, h / 2.0]),
        "image_size": (float(w), float(h)),
        "normal": rotation[:, 2],
    }


def normal_angle_deg(n, truth) -> float:
    """Angle between two plane normals, ignoring their sign."""
    n = np.asarray(n, dtype=float)
    c = abs(float(n @ truth)) / (np.linalg.norm(n) * np.linalg.norm(truth))
    return float(np.degrees(np.arccos(min(1.0, c))))


def calibration_errors(calibration: dict, truth: dict) -> tuple[float, float]:
    """(|f / f_true - 1| in percent, normal angle in degrees) of a calibration."""
    f_err = abs(calibration["f"] / truth["f"] - 1.0) * 100.0
    return f_err, normal_angle_deg(calibration["normal"], truth["normal"])


def check_calibration(path, truth: dict, workload, reference: bytes | None) -> list[str]:
    """Problems with a calibration file: bytes differ from the first
    iteration's, or ``f`` / the normal are outside the workload tolerance."""
    try:
        blob = Path(path).read_bytes()
        calibration = json.loads(blob)
        f_err, n_err = calibration_errors(calibration, truth)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"calibration unreadable: {exc}"]
    problems = []
    if reference is not None and blob != reference:
        problems.append("calibration differs from the first iteration's bytes")
    if not f_err <= workload.f_tol_pct:
        problems.append(f"f off by {f_err:.3g}% (tolerance {workload.f_tol_pct}%)")
    if not n_err <= workload.normal_tol_deg:
        problems.append(f"normal off by {n_err:.3g} deg (tolerance {workload.normal_tol_deg})")
    return problems


def per_vehicle_errors(pairs, truth: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per-vehicle focal error (%) and road-normal error (deg) of VP pairs.

    Each pair with a real focal length gives ``f_i = sqrt(-(u - p).(v - p))``;
    each pair gives a vanishing line through its two points, whose normal
    under the oracle intrinsics is compared with the oracle normal. These are
    the quantities the calibration takes medians of, so their medians over a
    scene are stable across seeds where the calibration's own error is not.
    """
    p = truth["principal_point"]
    f = truth["f"]
    focal, normal = [], []
    for pair in pairs:
        u = np.array([*pair.first, 0.0 if pair.first_is_direction else 1.0])
        v = np.array([*pair.second, 0.0 if pair.second_is_direction else 1.0])
        if u[2] and v[2]:
            r = -float((u[:2] - p) @ (v[:2] - p))
            if r > 0:
                focal.append(abs(np.sqrt(r) / f - 1.0) * 100.0)
        line = np.cross(u, v)
        n = np.array([f * line[0], f * line[1], p[0] * line[0] + p[1] * line[1] + line[2]])
        if np.linalg.norm(n[:2]) > 0:
            normal.append(normal_angle_deg(n, truth["normal"]))
    return np.array(focal), np.array(normal)


def decoded_angle(det, vp_box, box) -> float:
    """Angle (radians) between a decoded VP and the encoded one, in box coordinates.

    ``vp_box`` is the encoded homogeneous box-coordinate point. As in
    acceptance criterion 3, the sign is ignored when either point lies at
    infinity.
    """
    est = (det.point if det.direction_only else det.point - box.center) / box.half_size
    true = np.asarray(vp_box[:2], dtype=float)
    cosine = float(est @ true) / (np.linalg.norm(est) * np.linalg.norm(true))
    if det.direction_only or vp_box[2] == 0:
        cosine = abs(cosine)
    return float(np.arccos(np.clip(cosine, -1.0, 1.0)))


def roundtrip_error(det, vp_box, box, radius: float) -> str | None:
    """Codec round trip: the decoded VP lies within the chosen cell's
    one-pixel quantization bound of the encoded one (criterion 3)."""
    angle = decoded_angle(det, vp_box, box)
    if angle > radius * (1.0 + 1e-6) + 1e-9:
        return f"decoded VP off by {np.degrees(angle):.3g} deg, bound {np.degrees(radius):.3g}"
    return None
