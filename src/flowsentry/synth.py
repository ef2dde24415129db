"""Seeded synthetic data: flow CSVs shaped like CICFlowMeter exports.

The flow generator is the stand-in corpus for desk-scale runs when the real
capture archives are not on disk.  Class-conditional statistics are separated
enough that a correctly wired classifier can learn them quickly, while label
spellings, identity columns, pathological cells, and imbalance mirror the real
files.
"""

from __future__ import annotations

import io

import numpy as np

from .flowdata import PROFILES

# header mirrors a CICFlowMeter export: identity columns, stats, Label
IDENTITY_COLS = ["Flow ID", "Src IP", "Src Port", "Dst IP", "Dst Port", "Timestamp"]

STAT_COLS = [
    "Protocol", "Flow Duration", "Tot Fwd Pkts", "Tot Bwd Pkts",
    "TotLen Fwd Pkts", "TotLen Bwd Pkts", "Fwd Pkt Len Max", "Fwd Pkt Len Mean",
    "Fwd Pkt Len Std", "Bwd Pkt Len Max", "Bwd Pkt Len Mean", "Flow Byts/s",
    "Flow Pkts/s", "Flow IAT Mean", "Flow IAT Std", "Flow IAT Max",
    "Fwd IAT Mean", "Bwd IAT Mean", "Fwd PSH Flags", "SYN Flag Cnt",
    "ACK Flag Cnt", "PSH Flag Cnt", "RST Flag Cnt", "Pkt Len Mean",
    "Pkt Len Std", "Pkt Len Var", "Down/Up Ratio", "Subflow Fwd Pkts",
    "Subflow Bwd Pkts", "Init Fwd Win Byts", "Active Mean", "Idle Mean",
]

# (label spelling in the CSV, class share, per-class generator knobs)
IDS2017_MIX = [
    ("BENIGN", 0.38),
    ("DoS Hulk", 0.14),
    ("DoS slowloris", 0.04),
    ("DDoS", 0.14),
    ("PortScan", 0.12),
    ("Web Attack - Brute Force", 0.04),
    ("Web Attack - XSS", 0.03),
    ("Bot", 0.03),
    ("FTP-Patator", 0.05),
    ("SSH-Patator", 0.03),
]

IDS2018_MIX = [
    ("Benign", 0.40),
    ("DoS attacks-Hulk", 0.15),
    ("DDoS attacks-LOIC-HTTP", 0.14),
    ("Brute Force -Web", 0.05),
    ("SQL Injection", 0.03),
    ("PortScan", 0.10),
    ("FTP-BruteForce", 0.06),
    ("SSH-Bruteforce", 0.04),
    ("Infilteration", 0.03),
]

# class archetypes: mean shifts applied to a handful of informative stats,
# keyed by the class the profile's rules (flowdata.PROFILES) group a label into
_ARCHETYPES = {
    "Benign":       {"Flow Duration": 0.0, "Flow Byts/s": 0.0, "SYN Flag Cnt": 0.0,
                     "Flow IAT Mean": 0.0, "Pkt Len Mean": 0.0, "Tot Fwd Pkts": 0.0,
                     "ACK Flag Cnt": 0.5},
    "DoS":          {"Flow Duration": 2.5, "Flow Byts/s": 2.0, "SYN Flag Cnt": 1.5,
                     "Flow IAT Mean": -1.5, "Pkt Len Mean": -1.0, "Tot Fwd Pkts": 2.0,
                     "Fwd IAT Mean": -1.0},
    "DDoS":         {"Flow Duration": 1.0, "Flow Byts/s": 3.5, "SYN Flag Cnt": 2.5,
                     "Flow IAT Mean": -2.5, "Tot Fwd Pkts": 3.0, "Flow Pkts/s": 2.5,
                     "Pkt Len Mean": -1.5},
    "Portscan":     {"Flow Duration": -2.0, "Tot Fwd Pkts": -1.5, "SYN Flag Cnt": 3.0,
                     "Pkt Len Mean": -2.5, "Flow Byts/s": -2.0, "RST Flag Cnt": 2.0,
                     "Init Fwd Win Byts": -1.5},
    "Web":          {"Pkt Len Mean": 2.5, "TotLen Fwd Pkts": 2.0, "Flow Duration": 1.0,
                     "PSH Flag Cnt": 2.0, "Pkt Len Std": 1.5, "Down/Up Ratio": 1.5,
                     "Active Mean": 1.0},
    "Bot":          {"Idle Mean": 2.5, "Flow IAT Mean": 2.0, "Flow IAT Std": 2.0,
                     "Pkt Len Mean": 0.8, "Subflow Fwd Pkts": -1.0, "ACK Flag Cnt": 1.5,
                     "Flow Duration": 1.5},
    "Brute Force":  {"Tot Bwd Pkts": 2.0, "Bwd Pkt Len Mean": 2.0, "Flow IAT Mean": 1.0,
                     "PSH Flag Cnt": 1.5, "Fwd Pkt Len Mean": -1.0, "ACK Flag Cnt": 2.0,
                     "Bwd IAT Mean": 1.5},
    "Infiltration": {"Idle Mean": 2.0, "Active Mean": 2.0, "TotLen Bwd Pkts": 2.5,
                     "Flow Duration": 2.0, "Down/Up Ratio": 2.0, "Bwd Pkt Len Max": 1.5,
                     "Flow IAT Std": 1.5},
}

_PROTO_BY_ARCHETYPE = {
    "Benign": (6, 17), "DoS": (6,), "DDoS": (6, 17), "Portscan": (6,),
    "Web": (6,), "Bot": (6, 17), "Brute Force": (6,), "Infiltration": (6,),
}


def flow_csv(
    n_rows: int,
    profile: str = "ids2017",
    seed: int = 0,
    missing_fraction: float = 0.01,
    benign_only: bool = False,
    separation: float = 1.0,
) -> str:
    """Deterministic CSV text for the requested profile.

    `missing_fraction` of rows get one pathological cell (Infinity/NaN/empty);
    the "Fwd PSH Flags" column is mostly zero so the zero-heavy drop rule has
    something to chew on.  `separation` scales the class mean shifts.
    """
    rng = np.random.default_rng(seed)
    mix = IDS2017_MIX if profile == "ids2017" else IDS2018_MIX
    if benign_only:
        mix = [(mix[0][0], 1.0)]
    labels = [m[0] for m in mix]
    classes = [PROFILES[profile].match(label) for label in labels]
    shares = np.array([m[1] for m in mix])
    shares = shares / shares.sum()

    buf = io.StringIO()
    buf.write(",".join(IDENTITY_COLS + STAT_COLS + ["Label"]) + "\n")

    stat_index = {name: j for j, name in enumerate(STAT_COLS)}
    # column scales belong to the corpus, not the file: files drawn with
    # different seeds must still share one feature distribution
    base_scale = np.abs(np.random.default_rng(20240301).normal(3.0, 1.0, size=len(STAT_COLS))) + 1.0
    marker_cycle = ["Infinity", "NaN", "", "-Infinity"]
    n_missing = int(round(missing_fraction * n_rows))

    assignments = rng.choice(len(labels), size=n_rows, p=shares)
    missing_rows = set(rng.choice(n_rows, size=n_missing, replace=False)) if n_missing else set()

    for i in range(n_rows):
        label, cls = labels[assignments[i]], classes[assignments[i]]
        arche = _ARCHETYPES[cls]
        row = rng.normal(0.0, 1.0, size=len(STAT_COLS))
        for name, shift in arche.items():
            row[stat_index[name]] += separation * shift
        row = row * base_scale + 5.0 * base_scale      # positive-ish raw stats
        proto = rng.choice(_PROTO_BY_ARCHETYPE[cls])
        row[stat_index["Protocol"]] = proto
        # keep a near-constant zero-heavy column
        row[stat_index["Fwd PSH Flags"]] = 0.0 if rng.random() < 0.75 else 1.0
        for flag in ("SYN Flag Cnt", "ACK Flag Cnt", "PSH Flag Cnt", "RST Flag Cnt"):
            row[stat_index[flag]] = max(0.0, round(row[stat_index[flag]] / 3.0))

        cells = [
            f"flow-{i:06d}",
            f"10.0.{rng.integers(0, 32)}.{rng.integers(1, 255)}",
            str(int(rng.integers(1024, 65535))),
            f"172.16.{rng.integers(0, 8)}.{rng.integers(1, 255)}",
            str(int(rng.choice([80, 443, 22, 21, 8080]))),
            f"2024-03-01T{10 + (i // 3600) % 12:02d}:{(i // 60) % 60:02d}:{i % 60:02d}",
        ]
        stat_cells = [f"{v:.6f}" for v in row]
        stat_cells[stat_index["Protocol"]] = str(int(proto))
        if i in missing_rows:
            j = int(rng.integers(1, len(STAT_COLS)))   # never the Protocol column
            stat_cells[j] = marker_cycle[i % len(marker_cycle)]
        buf.write(",".join(cells + stat_cells + [label]) + "\n")
    return buf.getvalue()
