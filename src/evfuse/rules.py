"""The conjunctive core and the catalog of conflict-transfer operators.

Every rule here is the same two-stage pipeline: multiply the sources
pointwise under intersection (the conjunctive stage), then apply a
transfer operator that decides where mass on model-empty propositions
goes.  Distinct partial conflicts such as A&B and A&B|B&C stay apart
until then.  Dempster's transfer drops them; for every other rule
``_redistribute`` routes each: to a fixed target mask, to the union of
its atoms, or over its conflict parties by weight.  Where each term goes
is planned once per stored key layout and replayed on every snapshot.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress, count
from operator import not_

from .errors import TotalConflictError, ValidationError
from .lattice import _require_same
from .mass import ColumnSums, MassFunction, ordered_sum


class Rule(str, Enum):
    """Named combination rules: conjunctive core plus a transfer policy."""

    CONJUNCTIVE = "conjunctive"
    DEMPSTER = "dempster"
    SMETS = "smets"
    YAGER = "yager"
    DUBOIS_PRADE = "dubois_prade"
    DSM_CLASSIC = "dsm_classic"
    DSM_HYBRID = "dsm_hybrid"
    SDLI = "sdli"


def conjunctive(a: MassFunction, b: MassFunction) -> MassFunction:
    """Pointwise product combination: mass of X from one operand and Y
    from the other lands on X & Y, with no emptiness collapse.

    Operands may be sources or previously stored products; the result
    keeps its model-empty terms for a transfer to route later.
    """
    _require_same(a.model, b.model, "operands use different models")
    masks_b = list(b._masses.items())
    out: dict[int, float] = {}
    for x, mx in a._masses.items():
        for y, my in masks_b:
            z = x & y
            out[z] = out.get(z, 0.0) + mx * my
    return MassFunction._of_masks(a.model, out, allow_conflict=True)


def _plan(model, keys: tuple, target, columns) -> tuple:
    """Where ``_redistribute`` sends each term of the stored key tuple ``keys``, and
    ``Frame._plans``' only reader and filler: the frame keeps the last plan per
    constraint and transfer, reused while ``keys`` and ``columns`` (a weighted split's
    column keys, else None) are the same.  A plan is ``(keys, columns, weighing
    parties, visible selectors, conflicting selectors, routes, output keys, (those
    sorted, the model-empty ones unless kept as conflict))``.  A conflicting term's
    route is its output slot, or ``(slot, party index)`` per party of it that is a
    column key.  Output keys are the visible ones in mask order, then new ones in
    first-use order, as the routing below reaches them.  The parts are lists, only
    read: a tuple built from an iterator is resized as it grows, and building them so
    on every miss kept pymalloc arenas in use under CPython 3.11 (verify's RSS +1 MB)."""
    frame, visible = model.frame, model.visible
    memo_key = (model.constrained, target, columns is not None)
    plan = frame._plans.get(memo_key)
    if plan and plan[0] == keys and plan[1] == columns:
        return plan
    keep = [bits & visible for bits in keys]
    conflicting = list(map(not_, keep))
    out_keys = list(compress(keys, keep))
    slots = dict(zip(out_keys, count()))
    parties_at, routes = {}, []
    for bits in compress(keys, conflicting):
        if (to := target) is None:
            parties, to = frame._route(bits)
            if columns is not None and bits:
                shares = [(slots.setdefault(g, len(slots)),
                           parties_at.setdefault(g, len(parties_at)))
                          for g in parties if g in columns]
                if shares:
                    routes.append(tuple(shares))
                    continue
            if not to & visible:
                to = frame.full_bits
        routes.append(slots.setdefault(to, len(slots)))
    new = list(slots)[len(out_keys):]
    out_keys += new
    plan = frame._plans[memo_key] = (
        keys, columns, list(parties_at), keep, conflicting, routes, out_keys,
        (sorted(out_keys), [b for b in new if not b & visible] if new and target != 0 else []))
    return plan


def _redistribute(result: MassFunction, target=None, weights=None) -> MassFunction:
    """Send each conflicting term's mass to ``target``, kept as conflict only when
    that is the empty mask, or with none to the union of its atoms: total ignorance
    when the term is void or that union is empty.  ``weights``, ``{mask: weight > 0}``,
    split a non-void term first over its conflict parties that are its keys, if any.
    This replays the key layout's ``_plan``: the visible values in mask order, then
    ``+= v`` per conflicting term in mask order, or ``+= v * (w / total)`` per
    weighing party with ``total`` their weights added left to right from int 0.  A
    new key starts from 0.0."""
    model, masses = result.model, result._masses
    _, _, parties, keep, conflicting, routes, keys, layout = _plan(
        model, tuple(masses), target, None if weights is None else weights.keys())
    values = masses.values()
    out = list(compress(values, keep))
    out += [0.0] * (len(keys) - len(out))
    weight = list(map(weights.__getitem__, parties)) if parties else None
    for v, to in zip(compress(values, conflicting), routes):
        if to.__class__ is int:
            out[to] += v
            continue
        total = 0
        for _, k in to:
            total += weight[k]
        for slot, k in to:
            out[slot] += v * (weight[k] / total)
    return MassFunction._of_masks(model, dict(zip(keys, out)), target == 0, layout)


def transfer_dempster(result: MassFunction) -> MassFunction:
    """Drop conflicting terms and renormalise the survivors."""
    visible = result.model.visible
    kept = {bits: v for bits, v in result._masses.items() if bits & visible}
    # Divide by the kept mass itself, not by 1 - k: when k rounds to 1 on
    # long conflicting streams, 1 - k keeps no significant digit.
    total = ordered_sum(kept.values())
    if total <= 0.0:
        k = result.conflict_mass()
        raise TotalConflictError(f"conflict k={k!r}: Dempster combination is undefined")
    return MassFunction._of_masks(result.model, {bits: v / total for bits, v in kept.items()})


def transfer_smets(result: MassFunction) -> MassFunction:
    """Pool all conflicting mass on the empty mask, kept as conflict (open world)."""
    return _redistribute(result, 0)


def transfer_yager(result: MassFunction) -> MassFunction:
    """Move all conflicting mass to total ignorance."""
    return _redistribute(result, result.model.frame.full_bits)


def transfer_union(result: MassFunction) -> MassFunction:
    """Move each conflicting term to the union of the atoms it mentions.

    Serves both the Dubois-Prade and the hybrid DSm rules.  Falls back
    to total ignorance when even that union is empty under the model.
    """
    return _redistribute(result)


def transfer_sdli(result: MassFunction, columns: ColumnSums | None) -> MassFunction:
    """Redistribute each conflicting term over its conflict parties,
    proportionally to the parties' accumulated column sums.

    Parties that are not column keys get nothing; if no party is one,
    the term falls back to the union transfer.  The column
    sums must cover exactly the sources whose product is ``result``.
    """
    if columns is None:
        raise ValidationError("the sdli transfer needs column sums")
    _require_same(columns.model, result.model, "column sums use a different model")
    return _redistribute(result, weights=columns._masses)


def sdli2(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Direct two-source evaluation of the proportional partial-conflict
    rule from its closed formula.

    Each conflicting product m1(X)m2(A) + m1(A)m2(X) with X∩A empty is
    split between A and X in the ratio of their column sums.  It reads
    the masks alone.  Where every conflicting product comes from two
    unions of atoms, it must match ``combine2(Rule.SDLI, m1, m2)`` to
    within 1e-12, as verify's eq7 checks.
    """
    _require_same(m1.model, m2.model, "operands use different models")
    d1, d2, visible = m1._masses, m2._masses, m1.model.visible
    focal = sorted(d1.keys() | d2.keys())
    col = {a: d1.get(a, 0.0) + d2.get(a, 0.0) for a in focal}
    out = {}
    for x, mx in d1.items():
        for y, my in d2.items():
            z = x & y
            if z & visible:
                out[z] = out.get(z, 0.0) + mx * my
    for a in focal:
        share = 0.0
        for x in focal:
            if not a & x & visible:
                num = d1.get(x, 0.0) * d2.get(a, 0.0) + d1.get(a, 0.0) * d2.get(x, 0.0)
                if num:
                    # num > 0 forces both columns > 0, so the denominator
                    # is never zero here
                    share += num / (col[a] + col[x])
        if share:
            out[a] = out.get(a, 0.0) + col[a] * share
    return MassFunction._of_masks(m1.model, out)


def apply_transfer(rule: Rule | str, result: MassFunction,
                   columns: ColumnSums | None = None) -> MassFunction:
    """Apply only the transfer stage of a rule to a stored product.

    ``conjunctive`` and ``dsm_classic`` (the conjunctive rule on the free
    lattice) keep the pre-transfer masses.  Those are rebuilt from a copy,
    not returned as is: the CLI output carries this second renormalisation,
    and a snapshot must not share the stored terms.
    """
    rule = Rule(rule)
    if rule is Rule.DEMPSTER:
        return transfer_dempster(result)
    if rule is Rule.SMETS:
        return transfer_smets(result)
    if rule is Rule.YAGER:
        return transfer_yager(result)
    if rule is Rule.DUBOIS_PRADE or rule is Rule.DSM_HYBRID:
        return transfer_union(result)
    if rule is Rule.SDLI:
        return transfer_sdli(result, columns)
    return MassFunction._of_masks(result.model, dict(result._masses), allow_conflict=True)
