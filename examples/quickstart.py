"""Quickstart: archive a Markovian stream and query it with Caldera.

Walks the archive-and-query half of the paper's Figure 1:

1. generate a routine stream: Bob wanders corridor cells ``C0..C7``,
   walks past a doorway (``Door``) a few times and enters the room
   behind it (``Room``) once;
2. archive it with BT_C / BT_P / MC indexes, plus a join index over a
   ``LocationType`` dimension table (§3.4.1);
3. run an Entered-Room event query with several access methods and
   compare their answers and costs;
4. run a variable-length query over the dimension table.

Run: ``python examples/quickstart.py``
"""

import tempfile

from repro.core import Caldera
from repro.streams import routine_stream

#: Star-schema dimension table: every location's kind.
LOCATION_TYPE = {f"C{i}": "Corridor" for i in range(8)}
LOCATION_TYPE.update({"Door": "Doorway", "Room": "Office"})


def main() -> None:
    # --- 1. a day of Bob's routine as a Markovian stream ----------------
    stream = routine_stream("bob", num_snippets=20, seed=3)
    print(f"generated {stream.name!r}: {len(stream)} timesteps over "
          f"{len(stream.space)} locations")

    with tempfile.TemporaryDirectory() as tmp:
        with Caldera(tmp) as db:
            # --- 2. archive with indexes ------------------------------------
            db.register_dimension_table("LocationType", LOCATION_TYPE)
            db.archive(stream, layout="separated", mc_alpha=2,
                       join_tables=("LocationType",))
            print(f"archived {stream.name!r}: "
                  f"{len(db.storage_report())} database files")

            # --- 3. "when did Bob enter the room?" --------------------------
            entered = "location=Door -> location=Room"
            print(f"\nquery: {entered}")
            for method in ("naive", "btree"):
                result = db.query("bob", entered, method=method)
                peak = result.peak()
                print(f"  {method:>6}: peak p={peak[1]:.3f} at t={peak[0]} "
                      f"({result.stats.summary()})")

            # Auto-planned (the planner picks the B+Tree method):
            decision = db.explain("bob", entered)
            print(f"  planner chooses: {decision.name} — {decision.reason}")

            # Top-1 retrieval via the top-k B+Tree method:
            top = db.query("bob", entered, k=1)
            print(f"  top-1: {top.signal}")

            # --- 4. "left a doorway and eventually reached an office" -------
            reached_office = (
                "dim(location,LocationType)=Doorway -> "
                "(!dim(location,LocationType)=Office)* "
                "dim(location,LocationType)=Office"
            )
            print(f"\nquery: {reached_office}")
            for method in ("naive", "mc", "semi"):
                result = db.query("bob", reached_office, method=method)
                peak = result.peak()
                print(f"  {method:>6}: peak p={peak[1]:.3f} at t={peak[0]} "
                      f"({result.stats.summary()})")


if __name__ == "__main__":
    main()
