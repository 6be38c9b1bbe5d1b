"""The conjunctive core and the catalog of conflict-transfer operators.

Every rule here is the same two-stage pipeline: multiply the sources
pointwise under intersection (the conjunctive stage), then apply a
transfer operator that decides where mass on model-empty propositions
goes.  Distinct partial conflicts such as A&B and A&B|B&C stay apart
until then.  Dempster's transfer drops them; for every other rule one
loop, ``_redistribute``, routes each: to a fixed target mask, to the
union of its atoms, or over its conflict parties by weight.
"""

from __future__ import annotations

from enum import Enum

from .errors import TotalConflictError, ValidationError
from .lattice import _require_same
from .mass import ColumnSums, MassFunction, column_sums, ordered_sum


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


def _redistribute(result: MassFunction, target=None, weights=None) -> MassFunction:
    """Send each conflicting term's mass to ``target``, kept as conflict only when
    that is the empty mask, or with none to the union of its atoms: total ignorance
    when the term is void or that union is empty.  ``weights``, ``{mask: weight}``,
    split a non-void term first over its conflict parties by weight, if any has one."""
    frame, visible = result.model.frame, ~result.model.constrained
    out = {bits: v for bits, v in result._masses.items() if bits & visible}
    for bits, v in result._masses.items():
        if bits & visible:
            continue
        if (to := target) is None:
            parties, to = frame._route(bits)
            total = 0  # the party weights, added left to right as ordered_sum does
            if weights is not None and bits:
                for g in parties:
                    total += weights.get(g, 0.0)
            if total > 0.0:
                for g in parties:
                    if w := weights.get(g, 0.0):
                        out[g] = out.get(g, 0.0) + v * (w / total)
                continue
            if not to & visible:
                to = frame.full_bits
        out[to] = out.get(to, 0.0) + v
    return MassFunction._of_masks(result.model, out, target == 0)


def transfer_dempster(result: MassFunction) -> MassFunction:
    """Drop conflicting terms and renormalise the survivors."""
    visible = ~result.model.constrained
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

    Parties with zero column sum get nothing; if no party has any
    column mass the term falls back to the union transfer.  The column
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
    unions of atoms, it must match ``transfer_sdli(conjunctive(m1, m2),
    column_sums([m1, m2]))`` to within 1e-12, as verify's eq7 checks.
    """
    _require_same(m1.model, m2.model, "operands use different models")
    d1, d2, visible = m1._masses, m2._masses, ~m1.model.constrained
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


def _no_transfer(result: MassFunction, columns) -> MassFunction:
    # the pre-transfer masses are the decision output; dsm_classic is the
    # conjunctive rule on the free lattice.  Rebuilt, not returned as is:
    # the CLI output carries this second renormalisation, and a snapshot
    # must not share the stored terms.
    return MassFunction._of_masks(result.model, result._masses, allow_conflict=True)


# Each entry calls its transfer through the module global, looked up at
# call time, so that the transfers can be replaced from outside.
_TRANSFERS = {
    Rule.CONJUNCTIVE: _no_transfer,
    Rule.DSM_CLASSIC: _no_transfer,
    Rule.DEMPSTER: lambda r, c: transfer_dempster(r),
    Rule.SMETS: lambda r, c: transfer_smets(r),
    Rule.YAGER: lambda r, c: transfer_yager(r),
    Rule.DUBOIS_PRADE: lambda r, c: transfer_union(r),
    Rule.DSM_HYBRID: lambda r, c: transfer_union(r),
    Rule.SDLI: lambda r, c: transfer_sdli(r, c),
}


def apply_transfer(rule: Rule | str, result: MassFunction,
                   columns: ColumnSums | None = None) -> MassFunction:
    """Apply only the transfer stage of a rule to a stored product."""
    return _TRANSFERS[Rule(rule)](result, columns)


def combine2(rule: Rule | str, m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Combine two sources under a rule: conjunctive stage, then transfer."""
    return apply_transfer(rule, conjunctive(m1, m2), column_sums([m1, m2]))
