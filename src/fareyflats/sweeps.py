"""Verification drivers: exhaustive sweeps and seeded fixture suites.

Every driver returns its report through :func:`_report`: the driver's
name, its parameters and counters, a pass flag decided there from the
violations alone, and the violating fixtures (reconstructible from their
string forms).  Exhaustive sweeps walk all slopes up to a height bound; a
bound of zero makes them vacuous but still well-formed.  Seeded suites
draw reproducible fixtures through the samplers in
:mod:`fareyflats.orbifold` and never invent expectations: each check
recomputes both sides from the crossing oracle or the boundary walk.  The
two move suites differ only in the components they draw and in which
boundary components may serve as witness; :func:`_move_suite` runs the
rest.  An object's projection is its slope, and projections are compared
with the Farey distance.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from .orbifold import (
    DegenerateRealization,
    ObjectKind,
    PieceKind,
    PieceObject,
    curve,
    endpoint_linking,
    intersection_number,
    random_arcish,
    random_seam,
    random_slope,
    random_sphere_arc,
    random_torus_arc,
    random_wave,
    seam,
    seam_pairs,
    torus_arc,
    wave,
)
from .pieces import (
    associated_seam,
    common_boundaries,
    is_special_couple,
    projection_identity_report,
)
from .ribbon import neighborhood_boundary
from .slopes import Slope, det, distance, slopes_up_to

T = PieceKind.ONE_HOLED_TORUS
S = PieceKind.FOUR_HOLED_SPHERE


def _report(driver: str, violations: list, **fields) -> dict:
    """A driver's report: name, parameters and counters, verdict, violations."""
    return {
        "driver": driver,
        **fields,
        "pass": not violations,
        "violations": violations,
    }


def _pool(height: int) -> tuple[Slope, ...]:
    if height < 1:
        return ()
    return slopes_up_to(height)


def _all_seams(piece: PieceKind, height: int) -> list[PieceObject]:
    out = []
    for u in _pool(height):
        if piece is T:
            out.append(torus_arc(u))
        else:
            for pair in seam_pairs(u):
                out.append(seam(S, u, pair))
    return out


# ---------------------------------------------------------------------------
# closing-up identities (seam projected to its curve)


def identity_sweep(height: int) -> dict:
    """Exhaustive check of both closing-up identities on both pieces.

    Seam against seam: projecting one seam multiplies the crossing count
    by the strand factor and adds one crossing per shared end.  Seam
    against contained curve: the projection doubles (sphere) or keeps
    (torus) the count.  Every endpoint choice at every height up to the
    bound is visited.
    """
    tallies: dict[str, dict[str, int]] = {}
    violations = []
    for piece in (T, S):
        seams = _all_seams(piece, height)
        curves = [curve(piece, u) for u in _pool(height)]
        tally = tallies[piece.value] = {}
        for key, pairs in (
            ("seam_vs_seam", combinations(seams, 2)),
            ("seam_vs_curve", product(seams, curves)),
        ):
            tally[key] = 0
            for s_obj, t_obj in pairs:
                rep = projection_identity_report(s_obj, t_obj)
                tally[key] += 1
                if not rep["holds"]:
                    violations.append(rep)
    return _report("identity_sweep", violations, height=height, tallies=tallies)


# ---------------------------------------------------------------------------
# linked endpoints of distinct torus arcs


def linking_sweep(height: int) -> dict:
    """Every pair of distinct-slope torus arcs has linked endpoints."""
    checked = 0
    violations = []
    for a, b in combinations(_all_seams(T, height), 2):
        checked += 1
        if not endpoint_linking(a, b):
            violations.append({"a": str(a), "b": str(b)})
    return _report("linking_sweep", violations, height=height, checked=checked)


# ---------------------------------------------------------------------------
# disjointness forces projection distance <= 1 (sphere)


def _prs_case(s_obj: PieceObject, b_obj: PieceObject) -> str | None:
    """How the disjointness lemma treats a seam s and another object b.

    None when b is s or crosses it; "excluded" for a seam sharing both of
    s's ends (such twins project two steps apart); "checked" otherwise.
    """
    if b_obj == s_obj or intersection_number(s_obj, b_obj) != 0:
        return None
    if common_boundaries(s_obj, b_obj) > 1:
        return "excluded"
    return "checked"


def disjoint_projection_sweep(height: int) -> dict:
    """Exhaustive sphere check: disjoint from a seam means one step away.

    Seams with two shared ends are excluded by hypothesis (those twins
    project two steps apart); the count of exclusions is reported.
    """
    seams = _all_seams(S, height)
    waves = [wave(s_obj, over) for s_obj in seams for over in s_obj.endpoints]
    others = [curve(S, u) for u in _pool(height)] + seams + waves
    checked = excluded = 0
    violations = []
    for s_obj in seams:
        for b_obj in others:
            case = _prs_case(s_obj, b_obj)
            if case == "excluded":
                excluded += 1
            elif case == "checked":
                checked += 1
                if distance(s_obj.slope, b_obj.slope) > 1:
                    violations.append({"s": str(s_obj), "b": str(b_obj)})
    return _report(
        "disjoint_projection_sweep",
        violations,
        height=height,
        checked=checked,
        excluded_two_shared_ends=excluded,
    )


def disjoint_projection_suite(
    samples: int = 500, seed: int = 0, height: int = 8
) -> dict:
    """Seeded sphere fixtures of disjoint seam/other pairs.

    Disjoint pairs are rare among uniform draws, so the companion is
    biased toward the seam's own slope and its Farey neighborhood; the
    oracle then keeps exactly the pairs satisfying the hypotheses.
    """
    rng = random.Random(seed)
    checked = rejected = 0
    violations = []
    while checked < samples:
        s_obj = random_seam(rng, height)
        b_obj = random_arcish(rng, height)
        if rng.random() < 0.7:
            # bias: reuse the seam's slope for the companion
            b_obj = random_arcish(rng, height, s_obj.slope)
        if _prs_case(s_obj, b_obj) != "checked":
            rejected += 1
            continue
        checked += 1
        if distance(s_obj.slope, b_obj.slope) > 1:
            violations.append({"s": str(s_obj), "b": str(b_obj)})
    return _report(
        "disjoint_projection_suite",
        violations,
        samples=samples,
        seed=seed,
        height=height,
        checked=checked,
        rejected=rejected,
    )


# ---------------------------------------------------------------------------
# boundary components of move components


def _bound_holds(boundary, objects) -> bool:
    return all(distance(boundary.object.slope, o.slope) <= 1 for o in objects)


def _extras_disjoint(rng, gen, component, count: int) -> list[PieceObject]:
    """Up to ``count`` bystanders from ``gen``, disjoint from all accepted.

    Bystanders stand in for the rest of the trace: they must miss the
    component and each other, and their projections must stay within one
    step of every accepted projection.  The second filter drops the
    disjoint-yet-far pairs -- twin seams sharing both corners and the
    opposite waves doubling them -- whose gap already defeats a lone-arc
    component before any boundary is walked.  On the torus it never
    fires: disjoint objects there are always one step apart or equal.
    """
    extras: list[PieceObject] = []
    for _ in range(count):
        for _ in range(12):
            cand = gen(rng)
            accepted = list(component) + extras
            if any(cand == o for o in accepted):
                continue
            if any(intersection_number(cand, o) for o in accepted):
                continue
            if any(distance(cand.slope, o.slope) > 1 for o in accepted):
                continue
            extras.append(cand)
            break
    return extras


def _move_suite(driver, samples, seed, height, draw, bystander, witnesses):
    """The loop both move suites share.

    ``draw(rng)`` returns a component, or None to resample it.  Up to two
    bystanders ``bystander(rng, height)`` join it, then the boundary of
    the component's neighborhood is walked (degenerate walks are skipped
    and counted).  Among the essential boundary components whose kind is
    in ``witnesses``, the first projecting within one step of every trace
    object is tallied by kind; when there is none the fixture is a
    violation.
    """
    rng = random.Random(seed)
    checked = degenerate = resampled = 0
    kinds: dict[str, int] = {}
    violations = []
    while checked < samples:
        component = draw(rng)
        if component is None:
            resampled += 1
            continue
        extras = _extras_disjoint(
            rng, lambda r: bystander(r, height), component, rng.randrange(3)
        )
        try:
            walked = neighborhood_boundary(component)
        except DegenerateRealization:
            degenerate += 1
            continue
        essential = [c for c in walked if c.kind != "inessential"]
        winner = next(
            (
                d
                for d in essential
                if d.kind in witnesses and _bound_holds(d, component + extras)
            ),
            None,
        )
        checked += 1
        if winner is not None:
            kinds[winner.kind] = kinds.get(winner.kind, 0) + 1
        else:
            violations.append(
                {
                    "component": [str(o) for o in component],
                    "extras": [str(o) for o in extras],
                    "boundary": [f"{c.kind}:{c.object.slope}" for c in essential],
                }
            )
    return _report(
        driver,
        violations,
        samples=samples,
        seed=seed,
        height=height,
        checked=checked,
        degenerate_skipped=degenerate,
        resampled=resampled,
        witness_kinds=kinds,
    )


def torus_move_suite(
    samples: int = 500, seed: int = 0, height: int = 5
) -> dict:
    """Connected pieces of a first-kind move leave a nearby boundary arc.

    Fixture shapes: a lone arc, two arcs crossing once, or a contained
    curve crossed once by an arc, plus up to two disjoint bystander arcs
    standing in for the rest of the trace.  The check: some essential
    boundary component of the component's neighborhood projects within
    one step of every trace object, bystanders included.
    """

    def draw(rng):
        shape = rng.randrange(3)
        if shape == 0:
            return [random_torus_arc(rng, height)]
        if shape == 1:
            first = random_torus_arc(rng, height)
        else:
            first = curve(T, random_slope(rng, height))
        arc = random_torus_arc(rng, height)
        return [first, arc] if intersection_number(first, arc) == 1 else None

    return _move_suite(
        "torus_move_suite",
        samples,
        seed,
        height,
        draw,
        random_torus_arc,
        witnesses=("curve", "seam", "wave"),
    )


def sphere_move_suite(
    samples: int = 500, seed: int = 0, height: int = 5
) -> dict:
    """Non-special sphere components leave a nearby boundary arc.

    Fixture shapes: lone seams and waves, crossing pairs among seams and
    waves (two seams cross once at most, see the inline note), a contained
    curve crossed twice by a wave, and a contained curve crossed once by
    each of two disjoint seams, plus up to two disjoint bystander arcs
    standing in for the rest of the trace (the disjoint-yet-far twin
    configurations are excluded; see ``_extras_disjoint``).  The witness
    must be an arc (seam or wave), not a closed curve.

    Special couples (a seam crossing a contained curve twice) are excluded
    by hypothesis, and no shape can draw one: shapes 0 and 1 hold no
    curve, shape 2 pairs its curve with a wave, and shape 3 keeps only
    seams that cross the curve once.  So no draw is filtered for them.
    """

    def draw(rng):
        shape = rng.randrange(4)
        if shape == 0:
            component = [random_sphere_arc(rng, height)]
        elif shape == 1:
            a, b = random_sphere_arc(rng, height), random_sphere_arc(rng, height)
            crossings = 0 if a == b else intersection_number(a, b)
            # A double crossing inside one component comes from two strands
            # of a move running antiparallel, so it needs a wave; a pair of
            # straight seams can only carry same-signed crossings and never
            # arises twice along a single move.
            both_seams = (
                a.kind is ObjectKind.SEAM and b.kind is ObjectKind.SEAM
            )
            if not 1 <= crossings <= (1 if both_seams else 2):
                return None
            component = [a, b]
        elif shape == 2:
            c = curve(S, random_slope(rng, height))
            w = random_wave(rng, height)
            if intersection_number(c, w) != 2:
                return None
            component = [c, w]
        else:
            c = curve(S, random_slope(rng, height))
            s1, s2 = random_seam(rng, height), random_seam(rng, height)
            if (
                s1 == s2
                or intersection_number(c, s1) != 1
                or intersection_number(c, s2) != 1
                or intersection_number(s1, s2) != 0
            ):
                return None
            component = [c, s1, s2]
        return component

    return _move_suite(
        "sphere_move_suite",
        samples,
        seed,
        height,
        draw,
        random_sphere_arc,
        witnesses=("seam", "wave"),
    )


# ---------------------------------------------------------------------------
# the contained member of a special couple appears among projections


def couple_trace_suite(
    samples: int = 500, seed: int = 0, height: int = 8
) -> dict:
    """For each special couple, the twin seam recovers the curve's slope.

    Given a seam s crossing a contained curve c twice, exactly one of the
    two seams of c's slope is disjoint from s, namely the one sharing
    both of s's ends; its projection is c itself, so c's slope shows up
    among the projections of the union s with twin.
    """
    rng = random.Random(seed)
    pool = slopes_up_to(height)
    checked = rejected = 0
    violations = []
    while checked < samples:
        u = random_slope(rng, height)
        mates = [v for v in pool if abs(det(u, v)) == 2]
        if not mates:
            rejected += 1
            continue
        v = mates[rng.randrange(len(mates))]
        s_obj = random_seam(rng, height, u)
        c_obj = curve(S, v)
        if not is_special_couple(s_obj, c_obj):
            # never fires, but the oracle decides: I(seam(u), curve(v)) = |det(u, v)|
            # = 2 by the closing-up identity and criterion 3 (180 of 180 at H <= 6)
            rejected += 1
            continue
        twin = associated_seam(c_obj, s_obj)
        other_pair = next(
            p for p in seam_pairs(v) if p != twin.endpoints
        )
        other = seam(S, v, other_pair)
        problems = []
        if intersection_number(twin, s_obj) != 0:
            problems.append("twin crosses the seam")
        if set(twin.endpoints) != set(s_obj.endpoints):
            problems.append("twin does not share both ends")
        if intersection_number(other, s_obj) == 0:
            problems.append("twin choice is not unique")
        if twin.slope != v:
            problems.append("twin does not project to the curve")
        checked += 1
        if problems:
            violations.append(
                {
                    "s": str(s_obj),
                    "c": str(c_obj),
                    "twin": str(twin),
                    "problems": problems,
                }
            )
    return _report(
        "couple_trace_suite",
        violations,
        samples=samples,
        seed=seed,
        height=height,
        checked=checked,
        rejected=rejected,
    )
