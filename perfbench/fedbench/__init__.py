"""The repository benchmark: three federated workloads driven through the
public ``repro`` API, end-to-end metrics from untraced runs and per-module
attribution from a separate traced run.  See ``perfbench/README.md``."""
