"""Seeded input generators for the three workloads.

Everything here is plain data (atom names, model specs, rule names and
``{expression: mass}`` maps).  The program under test sees nothing but
these generated inputs.

A slot table fixes each workload's mix: atoms, model, rule, source count
and focal-set count per input.  For the batch workloads the shape of
each source (which unions of atoms carry mass) is drawn once from a
fixed stream and the seed draws the masses; for the stream the seed also
picks each source's focal sets from a fixed family.  The program's work
depends on the shapes, not on the mass values, so every seed asks it
for the same work on different inputs and runs with different seeds can
be compared.  (Relabelling the atoms would not do: the lattice loops
stop at the first matching atom position, so their cost depends on the
labels.)  Atom 0, ``A``, is the true atom.

Sources are sensor-like: every source puts part of its mass on a union
of atoms that contains the scenario's true atom, so the mass kept on
non-conflicting propositions is never exactly zero.  A fusion line or
request is therefore never in genuine total conflict, and a
``TotalConflictError`` on one of them is a defect of the program.
"""

from __future__ import annotations

import random

LETTERS = "ABCDEFGHIJKLMNOP"

RULES = ("conjunctive", "dempster", "smets", "yager",
         "dubois_prade", "dsm_classic", "dsm_hybrid", "sdli")

# Model per stream line.  dempster sits on the exclusive (Shafer) model,
# where its long streams drive the kept mass towards zero.
STREAM_MODELS = {
    "conjunctive": "exclusive", "dempster": "exclusive", "smets": "ring",
    "yager": "ring", "dubois_prade": "exclusive", "dsm_classic": "free",
    "dsm_hybrid": "ring", "sdli": "exclusive",
}
STREAM_ATOMS = 5
STREAM_SOURCES = 300
# The unions a line's sources draw their focal sets from, as atom
# positions; atom 0 is the true atom.  Whatever the seed picks from it,
# the stored state grows to the family's closure under intersection:
# 170 terms.
STREAM_FAMILY = ((0,), (1,), (2,), (0, 1), (0, 4), (1, 2), (2, 3), (0, 2), (1, 3),
                 (0, 1, 2), (2, 3, 4), (1, 2, 3))

MODEL_KINDS = ("exclusive", "ring", "free")


def model_spec(names, kind):
    """Scenario model field: 'free', 'exclusive' or a ring of exclusions."""
    if kind != "ring":
        return kind
    n = len(names)
    return {"exclusive_pairs": [[names[i], names[(i + 1) % n]] for i in range(n)]}


def _union(names, idx) -> str:
    return "|".join(sorted(names[i] for i in idx))


def _random_union(rng, n) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(n), rng.randint(1, 3))))


def source_shape(rng, n, focal, pool=None, discounted=False):
    """Focal sets of one source as atom-position tuples.  The first one
    contains atom 0, the true atom.  The others come from ``pool`` when
    given, else they are random unions of one to three atoms.  A
    discounted source also keeps some mass on total ignorance, which
    keeps every term of the stored state alive along a long stream."""
    if pool is None:
        truthy = tuple(sorted({0} | set(rng.sample(range(n), rng.randint(0, 1)))))
    else:
        truthy = rng.choice([p for p in pool if 0 in p])
    shape = [truthy]
    if discounted:
        shape.append(tuple(range(n)))
    while len(shape) < focal:
        idx = rng.choice(pool) if pool is not None else _random_union(rng, n)
        if idx not in shape:
            shape.append(idx)
    return shape


def sensor_source(rng, names, shape):
    """Random masses on a source shape; its first, truthy focal set gets
    30-70 % of the mass."""
    props = [_union(names, idx) for idx in shape]
    share = rng.uniform(0.3, 0.7) if len(props) > 1 else 1.0
    weights = [rng.random() + 0.05 for _ in props[1:]]
    rest = sum(weights)
    out = {props[0]: share}
    for p, w in zip(props[1:], weights):
        out[p] = (1.0 - share) * w / rest
    return out


def stream_lines(seed: int):
    """Eight fusion lines, one per rule, over a 5-atom frame."""
    rng = random.Random(f"stream/{seed}")
    names = list(LETTERS[:STREAM_ATOMS])
    lines = []
    for rule in RULES:
        sources = [
            sensor_source(rng, names, source_shape(rng, STREAM_ATOMS, rng.randint(2, 5),
                                                   pool=STREAM_FAMILY, discounted=True))
            for _ in range(STREAM_SOURCES)
        ]
        lines.append({"rule": rule, "frame": names,
                      "model": model_spec(names, STREAM_MODELS[rule]),
                      "sources": sources})
    return lines


def _cycled(shapes):
    """Give each (atoms, sources, focal) shape a model and a rule in turn."""
    return [(n, s, focal, MODEL_KINDS[i % 3], RULES[i % len(RULES)])
            for i, (n, s, focal) in enumerate(shapes)]


# (atoms, sources, focal range, model, rule) for one wide_batch cycle.
# The 16-atom requests stay at two sources with two or three focal sets:
# wider ones take tens of seconds each at the seed.
WIDE_SLOTS = (
    _cycled([(8, s, (2, 8)) for s in (2, 3, 4) * 7]
            + [(n, s, (2, 6)) for n in (9, 10) for s in (2, 3, 4) * 6]
            + [(n, s, (2, 4)) for n in (11, 12) for s in (2, 3, 4, 2, 3)]
            + [(n, s, (2, 3)) for n in (13, 14) for s in (2, 3)])
    + [(16, 2, (2, 3), "exclusive", "sdli"), (16, 2, (2, 3), "ring", "dubois_prade")]
)


def scenario(shape_rng, rng, n, kind, rule, sources, focal):
    """A scenario whose source shapes come from ``shape_rng`` and whose
    masses come from ``rng``."""
    names = list(LETTERS[:n])
    return {
        "frame": names,
        "model": model_spec(names, kind),
        "rule": rule,
        "sources": [
            {"name": f"s{i + 1}",
             "masses": sensor_source(rng, names,
                                     source_shape(shape_rng, n, shape_rng.randint(*focal)))}
            for i in range(sources)
        ],
    }


def wide_requests(seed: int):
    """One cycle of batch requests on 8-16 atoms, every rule and model."""
    shape_rng, rng = random.Random("wide_batch/shapes"), random.Random(f"wide_batch/{seed}")
    return [
        scenario(shape_rng, rng, n, kind, rule, s, focal)
        for n, s, focal, kind, rule in WIDE_SLOTS
    ]


# (atoms, sources, focal range, model, rule) for the generated verify
# scenarios.  Six sources mean 720 refolds for the ordering check.
VERIFY_SLOTS = _cycled(
    [(n, 4, (2, 4)) for n in (4, 5) * 6]
    + [(n, 5, (2, 3)) for n in (4, 5) * 6]
    + [(n, 6, (2, 2)) for n in (4, 5, 4)]
)


def verify_scenarios(seed: int):
    """Generated 4-5-atom verify scenarios across all models and rules."""
    shape_rng, rng = random.Random("verify/shapes"), random.Random(f"verify/{seed}")
    return [
        scenario(shape_rng, rng, n, kind, rule, s, focal)
        for n, s, focal, kind, rule in VERIFY_SLOTS
    ]
