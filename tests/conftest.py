import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cevians import bulk  # noqa: E402
from cevians.certifier import TARGETS  # noqa: E402
from cevians.intervals import _IntervalOps  # noqa: E402


def rel_close(a: float, b: float, rtol: float, floor: float = 0.0) -> bool:
    """Relative comparison with an absolute floor for near-zero values."""
    return abs(a - b) <= rtol * max(abs(a), abs(b), floor)


def sample_domain_boxes(rng, n, max_width=0.05):
    """Random boxes lying strictly inside the normalized domain, as a (4, n)
    array whose rows are xlo, xhi, ylo and yhi."""
    x, y = bulk.sample_normalized_points(rng, 8 * n)
    margin = np.minimum.reduce([
        (x + y - 1.0) / 3.0,
        (y - x) / 3.0,
        (1.0 - y) / 2.0,
        x / 2.0,
        np.full_like(x, max_width),
    ])
    keep = margin > 1e-4
    x, y, margin = x[keep][:n], y[keep][:n], margin[keep][:n]
    w = rng.uniform(0.0, 1.0, x.shape) * margin
    h = rng.uniform(0.0, 1.0, x.shape) * margin
    return np.array([x - w, x + w, y - h, y + h])


def natural_enclosure(target, xlo, xhi, ylo, yhi):
    """The natural enclosure of a target's minimum over its parts."""
    parts = TARGETS[target].parts(_IntervalOps, (xlo, xhi), (ylo, yhi))
    return (np.minimum.reduce([p[0] for p in parts]),
            np.minimum.reduce([p[1] for p in parts]))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(987654321)))
