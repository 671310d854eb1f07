"""Shift-matching objectives recomputed through the quantrep library.

    python3 perfbench/oracle.py <checkout root> '<JSON list of cases>'

Each case names a t0 and a t1 data file, a transform family, the true
transform and the ``estimate.json`` that ``shift-match`` wrote. The quantile
models are fitted the way ``shift-match`` fits them at its defaults
(``FitConfig(seed=0)``; the t1 model on the t0 model's grid). For each case
one JSON object is printed: the objective at the true transform and the
objective recomputed at the reported transform, so the driver can check
that the search reached at least the truth's objective and that the
reported objective belongs to the reported transform.
"""

import json
import math
import os
import sys


def transform_of(family, params):
    from quantrep.shift import Transform
    if family == "orthogonal-2d":
        return Transform(family, angle=math.radians(params["angle_deg"]),
                         reflect=bool(params["reflect"]))
    return Transform(family, matrix=params["matrix"], offset=params["offset"])


def main():
    root, cases = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, os.path.join(root, "src"))
    from quantrep.datasets import load_dataset
    from quantrep.linear import FitConfig
    from quantrep.quantile import fit_base_classifiers, fit_quantile_model
    from quantrep.shift import matching_objective

    out = []
    for case in cases:
        fc = FitConfig(seed=0)
        data_t0, data_t1 = load_dataset(case["t0"]), load_dataset(case["t1"])
        model_t0 = fit_quantile_model(data_t0, fit_base_classifiers(data_t0, fc),
                                      fit_config=fc)
        model_t1 = fit_quantile_model(data_t1, fit_base_classifiers(data_t1, fc),
                                      grid=model_t0.grid, fit_config=fc)
        with open(case["estimate"], encoding="utf-8") as fh:
            estimate = json.load(fh)
        family = case["family"]
        out.append({
            "truth": matching_objective(model_t0, model_t1,
                                        transform_of(family, case["truth"]),
                                        data_t1.features),
            "estimate": matching_objective(model_t0, model_t1,
                                           transform_of(family, estimate["params"]),
                                           data_t1.features),
        })
    print(json.dumps(out))


if __name__ == "__main__":
    main()
