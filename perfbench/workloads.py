"""The benchmark's workloads: fixed batches of hfib command lines.

The workload seed decides which instances are drawn (hfib verify seeds,
the order of the explore batch, and the substitution polynomial E and
point A), never how much work they take: sizes are fixed per workload,
and the E and A pools hold values of equal degree and size.  hfib only
ever sees the generated command lines.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

FORMATS = ("text", "csv", "json", "latex")

# Monic quadratics whose other coefficients all have 3 bits, written in
# different syntaxes so the parser does some work; coefficients are
# listed by degree for the oracle.
E_POOL = (
    ("h^2+4h+5", (5, 4, 1)),
    ("x^2 + 5x + 7", (7, 5, 1)),
    ("(h+2)(h+3)", (6, 5, 1)),
    ("(x+3)*(x+2)+1", (7, 5, 1)),
    ("h(h+6)+5", (5, 6, 1)),
    ("(h+2)^2+h+1", (5, 5, 1)),
)
A_POOL = (4, 5, 6, 7)


@dataclass
class Command:
    """One hfib invocation and what the oracle needs to check its output."""

    kind: str
    args: list[str]
    fmt: str = "text"
    spec: dict = field(default_factory=dict)


# `hfib --help`: interpreter start, package import and parser build
HELP = Command("help", ["--help"])


def _verify(rng: random.Random, r_max: int, n_max: int) -> Command:
    seed = rng.randrange(1_000_000)
    args = ["verify", "--r-max", str(r_max), "--n-max", str(n_max),
            "--format", "json", "--seed", str(seed)]
    bounds = {"r_max": r_max, "n_max": n_max, "seed": seed}
    return Command("verify", args, "json", {"bounds": bounds})


def _r_arg(r_list: list[int]) -> str:
    return ",".join(str(r) for r in r_list)


def _explore(rng: random.Random) -> list[Command]:
    """The explore mix, shuffled.  Each command appears in two formats and
    each format three times, so every format is rendered equally often at
    a fixed total work.
    """
    e1_text, e1 = rng.choice(E_POOL)
    e2_text, e2 = rng.choice(E_POOL)
    a = rng.choice(A_POOL)
    r_all, r_23, r_14 = list(range(1, 9)), [2, 3], [1, 4]
    templates = [
        ("gf", ["gf", "--r", "5", "--terms", "120"], {"r": 5, "terms": 120}, ("text", "latex")),
        ("gf", ["gf", "--r", "8", "--terms", "80"], {"r": 8, "terms": 80}, ("csv", "json")),
        ("table", ["table", "--r", _r_arg(r_all), "--n-max", "80"],
         {"r_list": r_all, "n_max": 80}, ("text", "json")),
        ("table", ["table", "--r", _r_arg(r_23), "--n-max", "60", "--subst", e1_text],
         {"r_list": r_23, "n_max": 60, "subst": list(e1)}, ("csv", "latex")),
        ("table", ["table", "--r", _r_arg(r_14), "--n-max", "80", "--subst", e2_text, "--at", str(a)],
         {"r_list": r_14, "n_max": 80, "subst": list(e2), "at": a}, ("text", "csv")),
        ("charpoly", ["charpoly", "--n", "120"], {"n": 120}, ("json", "latex")),
    ]
    batch = [
        Command(kind, [*args, "--format", fmt], fmt, spec)
        for kind, args, spec, formats in templates
        for fmt in formats
    ]
    rng.shuffle(batch)
    return batch


# name -> (why, batch builder).  The host this was tuned on switches
# between a fast and a slow speed for tens of seconds at a time, so the
# benchmark keeps two workloads and gives each a long run, rather than
# four short ones; see README.md for the two it dropped.
WORKLOADS = {
    "verify-deep": (
        "verify at r_max 8, n_max 60; the convolution route and Series power dominate "
        "(ROADMAP Fix 1 and Fix 2), and every verify check runs",
        lambda rng: [_verify(rng, 8, 60)],
    ),
    "explore": (
        "gf, table (plain, --subst, --at) and charpoly in all four formats; Series power, "
        "rendering, parsing and compose, no verify",
        _explore,
    ),
}


def build(workload: str, seed: int) -> list[Command]:
    """The workload's batch for this seed; the same seed gives the same batch."""
    _, builder = WORKLOADS[workload]
    return builder(random.Random(f"{workload}:{seed}"))


def work_signature(batch: list[Command]) -> list[tuple]:
    """What a batch costs, with the seed-drawn values reduced to their sizes."""
    sig = []
    for cmd in batch:
        spec = dict(cmd.spec)
        if "bounds" in spec:
            spec["bounds"] = {k: v for k, v in spec["bounds"].items() if k != "seed"}
        if "subst" in spec:
            spec["subst"] = [c.bit_length() for c in spec["subst"]]
        if "at" in spec:
            spec["at"] = spec["at"].bit_length()
        sig.append((cmd.kind, cmd.fmt, sorted(spec.items())))
    return sorted(sig, key=repr)
