"""Regenerate reference.json: the stored metric values and metrics.csv
hashes that the benchmark checks every run against, for every workload
and each seed of ``bench.REFERENCE_SEEDS``. Run from the repository root,
only when the simulator's results are meant to change:

    python3 perfbench/make_reference.py
"""
import hashlib
import json

import run


def main() -> None:
    run.prepare()
    import bench
    import workloads
    from fedcsi import cli, orchestrator

    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {}
        for seed in bench.REFERENCE_SEEDS:
            records = orchestrator.run_experiment(workloads.build(name, seed))
            table[name][str(seed)] = {
                "sha256": hashlib.sha256(cli.metrics_to_csv(records).encode()).hexdigest(),
                "rows": [[r.mse_gamma, r.mse_delta, r.mse_beta] for r in records],
            }
            print(f"{name} seed {seed} done", flush=True)
    # one line per (workload, seed), so a changed reference diffs readably
    blocks = []
    for name, seeds in table.items():
        lines = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(entry)}" for seed, entry in seeds.items())
        blocks.append(f"  {json.dumps(name)}: {{\n{lines}\n  }}")
    body = ",\n".join(blocks)
    bench.REFERENCE_FILE.write_text(f'{{\n "workloads": {{\n{body}\n }}\n}}\n')


if __name__ == "__main__":
    main()
