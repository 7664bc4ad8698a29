"""Loading a multi-behavior dataset and reading its alignment diagnostics.

A dataset is a directory: manifest.json plus one TSV per behavior.  The
diagnostics answer two questions about every auxiliary behavior: how much of
the target behavior it explains (alignment ratio, BAR) and how often targets
happen with no preceding auxiliary signal at all (direct-target ratio, DT).
"""

import json
import tempfile

from mbrobust import diagnose, load_dataset, split_leave_one_out

# --- write a small dataset by hand -----------------------------------------
# Three users buy things; "view" precedes most buys, "cart" is mostly noise.
with tempfile.TemporaryDirectory(prefix="mbrobust_demo_") as tmp:
    with open(f"{tmp}/manifest.json", "w") as fh:
        json.dump({"behaviors": ["view", "cart", "buy"], "target": "buy"}, fh)

    with open(f"{tmp}/view.tsv", "w") as fh:
        fh.write("# user  item  timestamp\n")
        fh.write("ann\tapple\t1\nann\tbread\t2\nbob\tbread\t1\nbob\tcocoa\t3\n")
        fh.write("cid\tapple\t2\ncid\tdates\t1\n")

    with open(f"{tmp}/cart.tsv", "w") as fh:
        fh.write("ann\tcocoa\t1\nbob\tdates\t2\ncid\tbread\t9\n")

    with open(f"{tmp}/buy.tsv", "w") as fh:
        fh.write("ann\tapple\t5\nann\tbread\t6\nann\tcocoa\t7\n")
        fh.write("bob\tbread\t5\nbob\tcocoa\t6\nbob\tapple\t7\n")
        fh.write("cid\tapple\t5\ncid\tdates\t6\ncid\tbread\t7\n")

    ds = load_dataset(tmp)

print("users:", ds.user_ids)
print("items:", ds.item_ids)

# --- diagnostics ------------------------------------------------------------
report = diagnose(ds)
print("\nedge counts:", report.counts)
for behavior, value in report.bar.items():
    print(f"BAR({behavior}) = {value:.3f}")
print(f"DT = {report.dt:.3f}  (approximate: {report.dt_approximate})")
# High BAR(view): most purchases were preceded by a view of the same item.
# Low BAR(cart): the cart behavior barely explains purchases here.

# --- leave-one-out split ----------------------------------------------------
# Latest target interaction per user -> test, second latest -> validation.
split = split_leave_one_out(ds)
print("\ntest pairs      :", split.test)
print("validation pairs:", split.validation)
buy = split.train.edges["buy"]  # edges are sorted by (user, item)
print("train buy edges :", list(zip(buy.user.tolist(), buy.item.tolist())))
