"""Seeded request streams for the four workloads.

The seed picks only the physics point: eta, (a, b) on the unit 3-sphere,
alpha in [0.1, 0.9], theta and k in [0.5, 4].  Grid sizes and k*r
products are fixed, so the work in a request does not depend on the seed.
Each cycle draws a regular point, a b = 0 point and a coupled point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

KINDS = ("regular", "b0", "coupled")
HEADER_CLASS = {"regular": "AB", "b0": "rotationally_invariant", "coupled": "mixing"}

WORKLOADS = ("scatter-dense", "field-grid", "far-field", "task-mix")
TASKS = ("spectrum", "amplitude", "xsection", "eigenfunction", "resolvent", "mixing", "validate")

# k*r of the field-grid radii (up to about 50) and of its resolvent source,
# which sits between two grid rings.
FIELD_KR = (1.0, 3.0, 7.0, 15.0, 30.0, 50.0)
FIELD_SOURCE_KR = 10.0
# The CLI's default radii and source, in units of 1/k.  The default source
# lies on the r = 1 ring.
SMALL_KR = (0.5, 1.0, 2.0, 4.0)
SMALL_SOURCE_KR = 1.0
# Im k / Re k of every resolvent request.
K_IMAG_SHARE = 0.25
FAR_FIELD_KR = 1000.0
FAR_FIELD_MIN_OFFSET = 0.3


@dataclass(frozen=True)
class Point:
    kind: str
    eta: float
    a: complex
    b: complex
    alpha: float

    @property
    def physics(self) -> tuple:
        return (self.eta, self.a, self.b, self.alpha)


@dataclass(frozen=True)
class Request:
    """One CLI task, or one far-field extraction (task "extract")."""

    task: str
    point: Point
    theta: float
    ks: tuple[float, ...]
    angles: int = 360
    radii: tuple[float, ...] = ()
    k_imag: float = 0.0
    source: tuple[float, float] = (1.0, 0.0)
    phi: float = 0.0

    def argv(self) -> list[str]:
        p = self.point
        args = [f"--alpha={p.alpha!r}", f"--eta={p.eta!r}",
                f"--a={p.a.real!r},{p.a.imag!r}", f"--b={p.b.real!r},{p.b.imag!r}"]
        if self.task != "spectrum":
            args += ["--k=" + ",".join(repr(k) for k in self.ks), f"--theta={self.theta!r}",
                     f"--angles={self.angles}"]
        if self.radii:
            args.append("--radii=" + ",".join(repr(r) for r in self.radii))
        if self.task == "resolvent":
            args += [f"--k-imag={self.k_imag!r}", f"--source={self.source[0]!r},{self.source[1]!r}"]
        return args + [self.task]

    @property
    def k_complex(self) -> complex:
        return complex(self.ks[0], self.k_imag)

    def points_count(self) -> int:
        """Output values the request returns."""
        if self.task in ("xsection", "amplitude"):
            return len(self.ks) * self.angles
        if self.task in ("eigenfunction", "resolvent"):
            return len(self.ks) * len(self.radii) * self.angles
        if self.task == "mixing":
            return 2 * len(self.ks)
        return 1


def draw_point(rng: np.random.Generator, kind: str) -> Point:
    alpha = float(rng.uniform(0.1, 0.9))
    if kind == "regular":
        return Point(kind, 0.0, complex(-1.0, 0.0), 0j, alpha)
    eta = float(rng.uniform(-math.pi, math.pi))
    if kind == "b0":
        tau = float(rng.uniform(-math.pi, math.pi))
        return Point(kind, eta, complex(math.cos(tau), math.sin(tau)), 0j, alpha)
    g = rng.normal(size=4)
    g = g / np.linalg.norm(g)
    return Point(kind, eta, complex(g[0], g[1]), complex(g[2], g[3]), alpha)


def _momenta(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    return tuple(float(k) for k in rng.uniform(0.5, 4.0, size=n))


def _grid_requests(point, theta, k, kr, source_kr, angles):
    """Eigenfunction and resolvent requests at fixed k*r."""
    k_abs = abs(complex(k, K_IMAG_SHARE * k))
    eig = Request("eigenfunction", point, theta, (k,), angles, tuple(x / k for x in kr))
    res = Request("resolvent", point, theta, (k,), angles, tuple(x / k_abs for x in kr),
                  k_imag=K_IMAG_SHARE * k, source=(source_kr / k_abs, 0.0))
    return eig, res


def point_requests(workload: str, rng: np.random.Generator, point: Point) -> list[Request]:
    """Every request of one workload at one point, in cycle order."""
    theta = float(rng.uniform(0.5, 4.0))
    if workload == "scatter-dense":
        ks = _momenta(rng, 4)
        return [Request("xsection", point, theta, ks, 3600),
                Request("amplitude", point, theta, ks, 3600)]
    if workload == "field-grid":
        (k,) = _momenta(rng, 1)
        return list(_grid_requests(point, theta, k, FIELD_KR, FIELD_SOURCE_KR, 256))
    if workload == "far-field":
        (k,) = _momenta(rng, 1)
        offset = float(rng.uniform(FAR_FIELD_MIN_OFFSET, 2.0 * math.pi - FAR_FIELD_MIN_OFFSET))
        return [Request("extract", point, theta, (k,), phi=theta + offset)]
    if workload == "task-mix":
        ks = _momenta(rng, 3)
        eig, res = _grid_requests(point, theta, ks[0], SMALL_KR, SMALL_SOURCE_KR, 360)
        return [Request("spectrum", point, theta, ks), Request("amplitude", point, theta, ks),
                Request("xsection", point, theta, ks), eig, res,
                Request("mixing", point, theta, ks), Request("validate", point, theta, ks[:1])]
    raise ValueError(f"unknown workload {workload!r}")


def cycles(workload: str, seed: int):
    """Endless stream of cycles (lists of requests); one seed, one stream."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    c = 0
    while True:
        points = [draw_point(rng, kind) for kind in KINDS]
        per_point = [point_requests(workload, rng, p) for p in points]
        if workload == "task-mix":
            # Each task once per cycle; the point it runs at rotates, so three
            # cycles put every task at every kind of point.
            yield [per_point[(i + c) % 3][i] for i in range(len(TASKS))]
        else:
            yield [req for reqs in per_point for req in reqs]
        c += 1


def shrink(req: Request, angles: int, n_k: int) -> Request:
    """A cheaper copy of a request (same point and geometry) for validating
    the checks over many draws."""
    return replace(req, angles=min(req.angles, angles), ks=req.ks[:n_k])
