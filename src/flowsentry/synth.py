"""Seeded synthetic data: flow CSVs shaped like CICFlowMeter exports.

The flow generator is the stand-in corpus for desk-scale runs when the real
capture archives are not on disk.  Class-conditional statistics are separated
enough that a correctly wired classifier can learn them quickly, while label
spellings, identity columns, pathological cells, and imbalance mirror the real
files.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
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


_MIXES = {"ids2017": IDS2017_MIX, "ids2018": IDS2018_MIX}
_FLAG_COLS = ["SYN Flag Cnt", "ACK Flag Cnt", "PSH Flag Cnt", "RST Flag Cnt"]
_DST_PORTS = (80, 443, 22, 21, 8080)
_MARKERS = ("Infinity", "NaN", "", "-Infinity")
# bounds of a row's integer draws: the source address's last two octets, the
# source port, the destination's last two octets, the destination port's
# index, and for a damaged row its marker's column, never Protocol's
_CELL_LOW = np.array([0, 1, 1024, 0, 1, 0, 1])
_CELL_HIGH = np.array([32, 255, 65535, 8, 255, len(_DST_PORTS), len(STAT_COLS)])
# one data row, whose Protocol prints as an integer
_ROW_FORMAT = ("flow-%06d,10.0.%d.%d,%d,172.16.%d.%d,%d,2024-03-01T%02d:%02d:%02d,"
               + ",".join("%d" if name == "Protocol" else "%.6f" for name in STAT_COLS)
               + ",%s")


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

    Each row's draws come from `rng` in row order: 32 normals, the protocol,
    the Fwd PSH coin, the five address and port cells, the destination port,
    and for a damaged row the column of its marker.  The arithmetic and the
    formatting then run over all rows at once, with each row's text the same,
    byte for byte, as when rows are built one at a time.
    """
    if profile not in _MIXES:
        raise ParameterError(f"unknown profile {profile!r} (expected one of {sorted(_MIXES)})")
    if n_rows < 0:
        raise ParameterError(f"n_rows must be >= 0, got {n_rows}")
    if not 0.0 <= missing_fraction <= 1.0:
        raise ParameterError(f"missing_fraction must be in [0, 1], got {missing_fraction}")
    if not np.isfinite(separation):
        raise ParameterError(f"separation must be finite, got {separation}")
    rng = np.random.default_rng(seed)
    mix = _MIXES[profile]
    if benign_only:
        mix = [(mix[0][0], 1.0)]
    labels = [m[0] for m in mix]
    classes = [PROFILES[profile].match(label) for label in labels]
    shares = np.array([m[1] for m in mix])
    shares = shares / shares.sum()

    stat_index = {name: j for j, name in enumerate(STAT_COLS)}
    # column scales belong to the corpus, not the file: files drawn with
    # different seeds must still share one feature distribution
    base_scale = np.abs(np.random.default_rng(20240301).normal(3.0, 1.0, size=len(STAT_COLS))) + 1.0
    n_missing = int(round(missing_fraction * n_rows))

    assignments = rng.choice(len(labels), size=n_rows, p=shares)
    missing_rows = set(rng.choice(n_rows, size=n_missing, replace=False)) if n_missing else set()

    protos = [_PROTO_BY_ARCHETYPE[cls] for cls in classes]
    stats = np.empty((n_rows, len(STAT_COLS)))
    proto_col = np.empty(n_rows)
    coins = np.empty(n_rows)
    cells = []
    normal, integers, uniform = rng.normal, rng.integers, rng.random
    low, high = _CELL_LOW[:-1], _CELL_HIGH[:-1]
    for i, a in enumerate(assignments.tolist()):
        stats[i] = normal(0.0, 1.0, size=len(STAT_COLS))
        options = protos[a]
        proto_col[i] = options[integers(len(options))]
        coins[i] = uniform()
        # one call draws the cells in order, as one call per cell would
        cells.append(integers(_CELL_LOW, _CELL_HIGH) if i in missing_rows
                     else integers(low, high))

    shifts = np.zeros((len(labels), len(STAT_COLS)))
    for a, cls in enumerate(classes):
        for name, shift in _ARCHETYPES[cls].items():
            shifts[a, stat_index[name]] = separation * shift
    stats += shifts[assignments]
    stats *= base_scale
    stats += 5.0 * base_scale                            # positive-ish raw stats
    stats[:, stat_index["Protocol"]] = proto_col
    # keep a near-constant zero-heavy column
    stats[:, stat_index["Fwd PSH Flags"]] = np.where(coins < 0.75, 0.0, 1.0)
    flags = [stat_index[name] for name in _FLAG_COLS]
    # a small negative rounds to -0.0, which + 0.0 makes 0.0 whichever zero np.maximum keeps
    stats[:, flags] = np.maximum(0.0, np.round(stats[:, flags] / 3.0)) + 0.0

    lines = [",".join(IDENTITY_COLS + STAT_COLS + ["Label"])]
    for i, (draws, values, a) in enumerate(zip(cells, stats.tolist(), assignments.tolist())):
        src1, src2, sport, dst1, dst2, dport, *marker_col = draws.tolist()
        line = _ROW_FORMAT % (i, src1, src2, sport, dst1, dst2, _DST_PORTS[dport],
                              10 + (i // 3600) % 12, (i // 60) % 60, i % 60,
                              *values, labels[a])
        if marker_col:
            parts = line.split(",")
            parts[len(IDENTITY_COLS) + marker_col[0]] = _MARKERS[i % len(_MARKERS)]
            line = ",".join(parts)
        lines.append(line)
    lines.append("")
    return "\n".join(lines)
