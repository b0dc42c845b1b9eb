"""Run one stripflow command and gate its peak RSS.

Usage: python .github/peak_rss.py LIMIT_MB ARG...

Runs ``python -m stripflow.cli ARG...`` with its stdout discarded, prints
the child's peak RSS and exits 1 if it is above LIMIT_MB (or with the
command's failure if it fails).
"""
import resource
import subprocess
import sys

limit_mb, *args = sys.argv[1:]
subprocess.run([sys.executable, "-m", "stripflow.cli", *args], check=True,
               stdout=subprocess.DEVNULL)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak_mb:.0f} MB")
sys.exit(peak_mb > float(limit_mb))
