"""Exception hierarchy for vpcalib.

Every error raised by the library derives from :class:`VPCalibError` so callers
can catch the whole family at once. Geometric preconditions raise subclasses of
``ValueError`` as well, keeping plain ``except ValueError`` workable.
"""

import contextlib


class VPCalibError(Exception):
    """Base class for all vpcalib errors."""


class DegenerateInput(VPCalibError, ValueError):
    """Two projectively equal points were given where distinct ones are required."""


class InvalidScale(VPCalibError, ValueError):
    """Scale factor must be strictly positive and finite."""


class OutOfDiamond(VPCalibError, ValueError):
    """Point lies outside the diamond |X| + |Y| <= 1."""


class EmptyHeatmap(VPCalibError, ValueError):
    """Heatmap contains no positive response; nothing to decode."""


class DegeneratePeak(VPCalibError):
    """Heatmap peak decodes to the bounding-box centre; scale unusable."""


class AllScalesDegenerate(VPCalibError):
    """No heatmap scale produced a usable vanishing point."""


class ImaginaryFocal(VPCalibError):
    """Vanishing-point pair gives a non-negative dot product: no real focal length."""


class NearZeroFocal(VPCalibError):
    """Focal length estimate below the minimum plausible value."""


class InsufficientPairs(VPCalibError):
    """Fewer usable vanishing-point pairs than the configured minimum."""


class NearVerticalHorizon(VPCalibError):
    """Most pair lines are near-vertical; slope/intercept form is unreliable."""


class DegenerateNormal(VPCalibError):
    """Road-plane normal has (near-)zero length."""


class PointOnHorizon(VPCalibError):
    """Image point lies on the horizon; the back-projection ray misses the plane."""


class UnprojectablePoint(VPCalibError):
    """A measurement endpoint could not be projected onto the road plane."""


class InsufficientMeasurements(VPCalibError):
    """Fewer than two projectable distance measurements."""


class DegenerateHomography(VPCalibError):
    """Perturbed image corners are too close to collinear for a homography."""


class InputFormatError(VPCalibError, ValueError):
    """An input file did not match the expected schema."""


class OutputError(VPCalibError):
    """An output file could not be written."""


# What reading and checking bad input raise: JSON and UTF-8 decode errors are
# ValueErrors, int(1e999) is an OverflowError, JSON nested too deep a RecursionError.
READ_ERRORS = (OSError, ValueError, TypeError, LookupError, OverflowError, RecursionError)


@contextlib.contextmanager
def reading(source: str):
    """Raise the block's :data:`READ_ERRORS` as ``InputFormatError("cannot read <source>: ...")``.

    Keep only reading and checking inside, so a program fault is never reported as bad input.
    """
    try:
        yield
    except InputFormatError:
        raise
    except READ_ERRORS as exc:
        raise InputFormatError(f"cannot read {source}: {exc}") from exc
