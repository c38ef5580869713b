"""The scalar camera and plane rules, kept as references.

:mod:`vpcalib.synthetic` and :mod:`vpcalib.evaluation` apply each rule once,
to columns: a world point's pixel, a pixel's road point, a direction's
vanishing point, a vehicle's cuboid corners, an image point's plane point.
Their public per-item functions are one-row calls of that code. These are
the per-item bodies they replaced, with the tape sampler and the
evaluation loop built on them; the tests require the column code to give
their bits, and their ``None`` returns and errors.
"""

import numpy as np

from vpcalib.calibration import VPPair
from vpcalib.errors import InsufficientMeasurements, PointOnHorizon, UnprojectablePoint
from vpcalib.evaluation import DistanceMeasurement

_DIRECTION_EPS = 1e-9


def project_direction(camera, direction):
    d = camera.rotation @ np.asarray(direction, dtype=float)
    if abs(d[2]) < _DIRECTION_EPS * np.linalg.norm(d):
        return None
    return np.array(
        [
            camera.f * d[0] / d[2] + camera.principal_point[0],
            camera.f * d[1] / d[2] + camera.principal_point[1],
        ]
    )


def project_point(camera, point_world):
    q = camera.rotation @ (np.asarray(point_world, dtype=float) - camera.center)
    if q[2] <= 1e-9:
        return None
    return np.array(
        [
            camera.f * q[0] / q[2] + camera.principal_point[0],
            camera.f * q[1] / q[2] + camera.principal_point[1],
        ]
    )


def ground_point(camera, pixel, max_range=500.0):
    pixel = np.asarray(pixel, dtype=float)
    ray_cam = np.array(
        [
            (pixel[0] - camera.principal_point[0]) / camera.f,
            (pixel[1] - camera.principal_point[1]) / camera.f,
            1.0,
        ]
    )
    ray_world = camera.rotation.T @ ray_cam
    if ray_world[2] >= -1e-12:
        return None
    t = camera.height / -ray_world[2]
    point = camera.center + t * ray_world
    if np.hypot(point[0], point[1]) > max_range:
        return None
    return np.array([point[0], point[1], 0.0])


def vehicle_vps(camera, vehicle):
    heading = np.array([np.cos(vehicle.heading), np.sin(vehicle.heading), 0.0])
    axle = np.array([-np.sin(vehicle.heading), np.cos(vehicle.heading), 0.0])
    first = project_direction(camera, heading)
    second = project_direction(camera, axle)
    return VPPair(
        first=first if first is not None else camera.image_direction(heading),
        second=second if second is not None else camera.image_direction(axle),
        first_is_direction=first is None,
        second_is_direction=second is None,
    )


def vehicle_bbox_3d(vehicle):
    length, width, height = vehicle.dims
    c, s = np.cos(vehicle.heading), np.sin(vehicle.heading)
    corners = []
    for dx in (-length / 2, length / 2):
        for dy in (-width / 2, width / 2):
            for dz in (0.0, height):
                corners.append(
                    [
                        vehicle.position[0] + dx * c - dy * s,
                        vehicle.position[1] + dx * s + dy * c,
                        dz,
                    ]
                )
    return np.array(corners)


def measurements(spec, camera):
    """The tape measurements of a scene, one sampled attempt at a time, and
    the number of attempts they took."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 10**6 + 1)))
    w, h = camera.image_size
    out = []
    attempts = 0
    max_range = 60.0 * camera.height
    while len(out) < spec.n_measurements and attempts < 500 * spec.n_measurements:
        attempts += 1
        pa = rng.uniform([0.05 * w, 0.05 * h], [0.95 * w, 0.95 * h])
        pb = rng.uniform([0.05 * w, 0.05 * h], [0.95 * w, 0.95 * h])
        a_world = ground_point(camera, pa, max_range)
        b_world = ground_point(camera, pb, max_range)
        if a_world is None or b_world is None:
            continue
        distance = float(np.linalg.norm(a_world - b_world))
        if distance < 1.0:
            continue
        a = project_point(camera, a_world)
        b = project_point(camera, b_world)
        if a is None or b is None:
            continue
        out.append(DistanceMeasurement(a, b, distance))
    if len(out) < spec.n_measurements:
        raise InsufficientMeasurements(
            f"a camera at tilt_deg={spec.tilt_deg} sees too little road for the measurements"
        )
    return out, attempts


def project_to_plane(point, calibration):
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    p = calibration.intrinsics.principal_point
    rays = np.concatenate([pts - p, np.full((len(pts), 1), calibration.intrinsics.f)], axis=1)
    n = calibration.plane_normal
    depth = rays @ n
    limit = 1e-9 * np.linalg.norm(rays, axis=1) * np.linalg.norm(n)
    if np.any(depth > -limit):
        raise PointOnHorizon("point lies on, too near or beyond the horizon: "
                             "its ray meets the road plane behind the camera or nowhere")
    out = -(calibration.delta / depth)[:, None] * rays
    return out[0] if np.ndim(point) == 1 else out


def measured_distance(measurement, calibration):
    try:
        qa = project_to_plane(measurement.a, calibration)
        qb = project_to_plane(measurement.b, calibration)
    except PointOnHorizon as exc:
        raise UnprojectablePoint(str(exc)) from exc
    return float(np.linalg.norm(qa - qb))


def distances(measurements, calibration):
    """The measured and true distances of the projectable measurements, and
    how many were skipped, one measurement at a time."""
    measured, truth, n_skipped = [], [], 0
    for m in measurements:
        try:
            measured.append(measured_distance(m, calibration))
        except UnprojectablePoint:
            n_skipped += 1
            continue
        truth.append(m.ground_truth)
    return measured, truth, n_skipped
