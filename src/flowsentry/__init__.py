"""Flow-record intrusion detection with CI stage gating.

The pipeline runs parse -> clean -> feature selection -> scale -> rebalance ->
train -> persist -> monitor.  Each stage lives in its own module, imported by
name (`from flowsentry import cli, pipeline`); `flowsentry.cli` is the
command-line front end.
"""

__version__ = "0.1.0"
