"""Shared fan fixtures, context factory and mirror-data cache for the suite."""

import time

from toricmirror.engine import compute_mirror_data
from toricmirror.fans import load_fan
from toricmirror.gaussmanin import check_theta
from toricmirror.series import Context, TruncationPolicy

P1 = {
    "name": "p1",
    "dim": 1,
    "rays": [[1], [-1]],
    "max_cones": [[0], [1]],
}

P2 = {
    "name": "p2",
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 0]],
}

C2 = {
    "name": "c2",
    "dim": 2,
    "rays": [[1, 0], [0, 1]],
    "max_cones": [[0, 1]],
}

F1 = {
    "name": "f1",
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
}

# Not semipositive: the class of the (-1, 3) curve has c1-degree -1.
F3 = {
    "name": "f3",
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, 3], [0, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
}

FANS = {"p1": P1, "p2": P2, "c2": C2, "f1": F1, "f3": F3}


def make_ctx(fan_dict, kcoh=3, kvar=2, qcap=3, gcap=2, zneg=10, **kw):
    fan = load_fan(dict(fan_dict))
    policy = TruncationPolicy(
        kcoh=kcoh, kvar=kvar, qcap=qcap, gcap=gcap, zneg=zneg, **kw
    )
    return Context(fan, policy)


_MIRROR = {}
_THETA = {}


def _key(fan_dict, kw):
    return (fan_dict["name"], tuple(sorted(kw.items())))


def mirror_timed(fan_dict, **kw):
    """``(mirror data, build seconds)`` at ``make_ctx(fan_dict, **kw)``.

    Built once per test session and shared by every module: the f1 data alone
    takes tens of seconds, and the pipeline is deterministic.  Tests must not
    mutate the returned data; those that corrupt a column build their own
    with ``make_ctx``.
    """
    key = _key(fan_dict, kw)
    if key not in _MIRROR:
        ctx = make_ctx(fan_dict, **kw)
        t0 = time.perf_counter()
        md = compute_mirror_data(ctx, check=True)
        _MIRROR[key] = (md, time.perf_counter() - t0)
    return _MIRROR[key]


def mirror(fan_dict, **kw):
    """The shared mirror data of ``mirror_timed``."""
    return mirror_timed(fan_dict, **kw)[0]


def theta_report(fan_dict, **kw):
    """``check_theta(..., strict=True)`` on the shared mirror data, once."""
    key = _key(fan_dict, kw)
    if key not in _THETA:
        _THETA[key] = check_theta(mirror(fan_dict, **kw), strict=True)
    return _THETA[key]
