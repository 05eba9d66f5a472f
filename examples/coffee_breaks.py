"""Coffee-Break detection: variable-length queries and the MC index.

The paper's Fig 3(b) query: *"when did the person go from the hallway
to (eventually) a coffee room?"* — a Kleene-closure query that can match
intervals of any length, so fixed-length indexing does not apply. Here
the monitored ``Room`` of a routine stream plays the coffee room and
its ``Door`` the hallway doorway. This example compares:

- the naive full scan (Alg 1),
- the exact MC-index method (Alg 4),
- the approximate semi-independent method (Alg 5),

and also demonstrates a *positive* Kleene loop ("lingered in the coffee
room the whole time") answered through a predicate-conditioned MC index
(§3.3.2).

Run: ``python examples/coffee_breaks.py``
"""

import tempfile

from repro.core import Caldera
from repro.query import Equals
from repro.streams import routine_stream

NAME = "pat"


def main() -> None:
    stream = routine_stream(NAME, num_snippets=30, seed=21)
    print(f"generated {NAME!r}: {len(stream)} timesteps")

    coffee_pred = Equals("location", "Room")
    with tempfile.TemporaryDirectory() as tmp:
        with Caldera(tmp) as db:
            db.archive(stream, mc_alpha=2,
                       conditioned_predicates=[coffee_pred])

            # Negated-loop Kleene: doorway, then EVENTUALLY the room.
            query = "location=Door -> (!location=Room)* location=Room"
            print(f"\nquery: {query}")
            print(f"data density: {db.data_density(NAME, query):.3f}")
            baseline = None
            for method in ("naive", "mc", "semi"):
                result = db.query(NAME, query, method=method, cold=True)
                peak = result.peak() or (None, 0.0)
                note = ""
                if method == "naive":
                    baseline = result
                else:
                    speedup = (baseline.stats.wall_time
                               / max(result.stats.wall_time, 1e-9))
                    note = f"  ({speedup:.1f}x vs scan)"
                print(f"  {method:>6}: peak p={peak[1]:.3f} at t={peak[0]}; "
                      f"{result.stats.summary()}{note}")

            # Semi-independent error vs the exact signal.
            exact = db.query(NAME, query, method="mc").as_dict()
            approx = db.query(NAME, query, method="semi").as_dict()
            errors = [abs(approx.get(t, 0.0) - p) for t, p in exact.items()]
            print(f"  semi-independent max abs error: {max(errors):.3f} "
                  f"(no guarantees, §3.4.3)")

            # Positive Kleene loop: entered the room and STAYED in it
            # until time t (a lingering coffee break), answered with a
            # conditioned MC index.
            linger = "location=Door -> (location=Room)* location=Room"
            print(f"\nquery: {linger}")
            exact_mode = db.query(NAME, linger, method="mc", cold=True)
            conditioned = db.query(NAME, linger, method="mc",
                                   use_conditioned=True, cold=True)
            print(f"  exact MC:        {exact_mode.stats.summary()} "
                  f"({len(exact_mode.signal)} points)")
            print(f"  conditioned MC:  {conditioned.stats.summary()} "
                  f"({len(conditioned.signal)} boundary points)")
            peak = exact_mode.peak()
            if peak:
                print(f"  longest plausible break ends near t={peak[0]} "
                      f"(p={peak[1]:.3f})")


if __name__ == "__main__":
    main()
