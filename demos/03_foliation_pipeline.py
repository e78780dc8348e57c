"""
Standardizing a disk characteristic foliation
=============================================

The spanning disk of a Legendrian unknot carries a singular foliation.
The rewrite engine drives its combinatorial shadow through the
standardization pipeline

    alternating boundary -> NAF -> reduced -> elliptic form

where the interior count identity e+/- - h+/- = (1 -/+ tb +/- r)/2 holds
at every NAF state, and the elliptic-form disk retracts onto a signed
tree (the extended skeleton) that rebuilds the front.
"""

from legkit import (
    OrientedFront,
    build_front,
    init_boundary,
    invariant_pair,
    reduce_interior,
    to_elliptic_form,
    to_naf,
)
from legkit.foliation import ELLIPTIC, dump_state

TB, R = -3, 0

# Start from the raw disk: 2|tb| boundary tangencies, all recorded as
# elliptic, so the NAF stage has real conversions to do.
state = init_boundary(TB, R, boundary_kinds=[ELLIPTIC] * (2 * abs(TB)))
print("initial interior counts:", state.counts("interior"))

state = to_naf(state)
print("after NAF: boundary", [state.sing_map[b][::-1] for b in state.boundary])
print("interior identity differences:", state.identity_differences("interior"))

state = reduce_interior(state)
print("reduced interior:", state.counts("interior"))

# The elliptic-form stage returns the state with its extended skeleton.
state, skel = to_elliptic_form(state)
print("elliptic form reached")

# Every rewrite carries its count delta; the trace is an append-only log.
print("\nrewrite trace:")
for step in state.trace:
    print("  ", step.describe())

print("\nfinal state dump:")
print(dump_state(state))

# The extended skeleton is a signed tree with exactly 1 - tb vertices;
# feeding it back through the wavefront construction recovers (tb, r).
front = build_front(skel.embedding())
print("\nskeleton vertices:", len(skel.tree.vertices),
      "-> rebuilt front invariants:", invariant_pair(OrientedFront.default(front)))
