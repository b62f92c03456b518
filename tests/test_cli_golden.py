"""Golden output of every CLI subcommand at seed 42.

Each case runs ``finsym`` in-process and compares its exit code and the
exact bytes it writes to stdout with the strings below.  Together the
fixtures cover every tagged coefficient family plus free-form D and h, so
a change to spec encoding, classification, sampling or printing that moves
any output byte shows up here.
"""
import json

import pytest

from finsym.cli import main

FOUR_THIRDS = -4 / 3

EQUATIONS = {
    "pu_px": {"D": {"family": "power_u", "n": 2},
              "h": {"family": "power_x", "q": 3, "eps": 1}},
    "pu_px_q0": {"D": {"family": "power_u", "n": 1},
                 "h": {"family": "power_x", "q": 0, "eps": -1}},
    "pu_expx": {"D": {"family": "power_u", "n": 1},
                "h": {"family": "exp_x", "eps": -1}},
    "pu_h1": {"D": {"family": "power_u", "n": FOUR_THIRDS},
              "h": {"family": "h1", "p": 1, "q": 1, "eps": 1}},
    "pu_h1_p0": {"D": {"family": "power_u", "n": FOUR_THIRDS},
                 "h": {"family": "h1", "p": 0, "q": 2, "eps": 1}},
    "pu_h1_pm1": {"D": {"family": "power_u", "n": FOUR_THIRDS},
                  "h": {"family": "h1", "p": -1, "q": 5, "eps": 1}},
    "pu_const": {"D": {"family": "power_u", "n": 2},
                 "h": {"family": "constant", "c": 1}},
    "spu_const0": {"D": {"family": "shifted_power_u", "n": 2, "alpha": 1},
                   "h": {"family": "constant", "c": 0}},
    "expu_const0": {"D": {"family": "exp_u"},
                    "h": {"family": "constant", "c": 0}},
    "recip_const": {"D": {"family": "reciprocal_shift"},
                    "h": {"family": "constant", "c": 1}},
    "free_invsq": {"D": {"expr": "u^3+u"},
                   "h": {"family": "inverse_square_x"}},
    "free_free": {"D": {"expr": "u^2+1"}, "h": {"expr": "x^2+x"}},
    "free_fit": {"D": {"expr": "3*exp(2*u)"}, "h": {"expr": "0*x"}},
    "free_power": {"D": {"expr": "u^(-4/3)"}, "h": {"expr": "1"}},
    "nonclassical": {"D": {"family": "power_u", "n": -1},
                     "h": {"expr": "x"}, "params": {"C": 2}},
}

CASES = {
    **{f"classify-{name}": (["classify", "--eq", name, "--json"])
       for name in EQUATIONS if name != "nonclassical"},
    "classify-text": ["classify", "--eq", "pu_h1"],
    "symmetries": ["symmetries", "--eq", "spu_const0", "--json"],
    "verify-symmetry-pass": ["verify-symmetry", "--eq", "pu_px",
                             "--field=-6*t;2*x;5*u", "--json"],
    "verify-symmetry-fail": ["verify-symmetry", "--eq", "free_invsq",
                             "--field", "0;0;u", "--json"],
    "transform-6p0-to-5": ["transform", "--eq", "pu_h1_p0",
                           "--map", "6p0-to-5", "--json"],
    "transform-case8-out": ["transform", "--eq", "recip_const",
                            "--map", "case8-out", "--json"],
    "transform-10-to-11": ["transform", "--eq", "pu_const",
                           "--map", "10-to-11", "--json"],
    "transform-11a-to-11": ["transform", "--eq", "spu_const0",
                            "--map", "11a-to-11", "--json"],
    "transform-12-to-13": ["transform", "--eq", "free_power",
                           "--map", "12-to-13", "--json"],
    "reduce": ["reduce", "--eq", "pu_px", "--sub", "1", "--json"],
    "exact-case5": ["exact", "--eq", "pu_expx", "--json"],
    "exact-case6": ["exact", "--eq", "pu_h1", "--json"],
    "exact-case6-pm1": ["exact", "--eq", "pu_h1_pm1", "--json"],
    "exact-nonclassical": ["exact", "--eq", "nonclassical", "--json"],
    "conserve-power-x": ["conserve", "--eq", "pu_px_q0", "--json"],
    "conserve-recip": ["conserve", "--eq", "recip_const", "--json"],
    "conserve-exp": ["conserve", "--eq", "expu_const0", "--json"],
    "conserve-shifted": ["conserve", "--eq", "spu_const0", "--json"],
    "conserve-none": ["conserve", "--eq", "pu_px", "--json"],
    "residual": ["residual", "--eq", "pu_expx", "--solution", "x^3/15",
                 "--t-range", "0,1", "--x-range", "1,2", "--json"],
    "simulate-explicit": ["simulate", "--eq", "pu_px", "--initial", "x/2",
                          "--left", "1/2", "--right", "1", "--xa", "1",
                          "--xb", "2", "--m", "8", "--t-final", "0.002",
                          "--dt", "0.001"],
    "simulate-explicit-noflux": ["simulate", "--eq", "recip_const",
                                 "--initial", "1+x^2", "--noflux", "--xa",
                                 "0", "--xb", "1", "--m", "8", "--t-final",
                                 "0.002", "--dt", "0.001"],
    "simulate-implicit": ["simulate", "--eq", "recip_const",
                          "--initial", "1+x^2", "--noflux", "--xa", "0",
                          "--xb", "1", "--m", "8", "--t-final", "0.02",
                          "--dt", "0.01", "--method", "implicit"],
    "simulate-implicit-dirichlet": ["simulate", "--eq", "pu_px", "--initial",
                                    "x/2", "--left", "1/2+t", "--right",
                                    "exp(t)", "--xa", "1", "--xb", "2", "--m",
                                    "8", "--t-final", "0.03", "--dt", "0.01",
                                    "--method", "implicit"],
}

GOLDEN = {
    'classify-expu_const0': (0, '{"case": 9, "params": {}, "basis": ["d_t", "d_x", "2*t*d_t+x*d_x", "x*d_x+2*d_u"], "note": null}\n'),
    'classify-free_fit': (0, '{"case": 9, "params": {}, "basis": ["d_t", "d_x", "2*t*d_t+x*d_x", "x*d_x+d_u"], "note": "D coefficient 3 rescaled to 1; D exponent rate 2 rescaled to 1"}\n'),
    'classify-free_free': (0, '{"case": 1, "params": {}, "basis": ["d_t"], "note": null}\n'),
    'classify-free_invsq': (0, '{"case": 3, "params": {"c": 1}, "basis": ["d_t", "2*t*d_t+x*d_x"], "note": null}\n'),
    'classify-free_power': (0, '{"case": 12, "params": {"eps": 1}, "basis": ["d_t", "d_x", "exp(1.3333333333333333*t)*d_t+exp(1.3333333333333333*t)*u*d_u", "2*x*d_x-3*u*d_u", "x^2*d_x-3*(x*u)*d_u"], "note": null}\n'),
    'classify-pu_const': (0, '{"case": 10, "params": {"n": 2, "eps": 1}, "basis": ["d_t", "d_x", "(exp(-2*t))*d_t+(exp(-2*t)*u)*d_u", "2*x*d_x+2*u*d_u"], "note": null}\n'),
    'classify-pu_expx': (0, '{"case": 5, "params": {"n": 1, "eps": -1}, "basis": ["d_t", "-t*d_t+d_x+u*d_u"], "note": null}\n'),
    'classify-pu_h1': (0, '{"case": 6, "params": {"p": 1, "q": 1, "eps": 1}, "basis": ["d_t", "-4*t*d_t+(4*(x^2+1))*d_x+(-(3*((4*x+1)*u)))*d_u"], "note": null}\n'),
    'classify-pu_h1_p0': (0, '{"case": 6, "params": {"p": 0, "q": 2, "eps": 1}, "basis": ["d_t", "-8*t*d_t+4*x^2*d_x+(-(3*((4*x+2)*u)))*d_u"], "note": null}\n'),
    'classify-pu_h1_pm1': (0, '{"case": 6, "params": {"p": -1, "q": 5, "eps": 1}, "basis": ["d_t", "-20*t*d_t+(4*(x^2+-1))*d_x+(-(3*((4*x+5)*u)))*d_u"], "note": null}\n'),
    'classify-pu_px': (0, '{"case": 4, "params": {"n": 2, "q": 3, "eps": 1}, "basis": ["d_t", "-6*t*d_t+2*x*d_x+5*u*d_u"], "note": null}\n'),
    'classify-pu_px_q0': (0, '{"case": 10, "params": {"n": 1, "eps": -1}, "basis": ["d_t", "d_x", "exp(t)*d_t-exp(t)*u*d_u", "x*d_x+2*u*d_u"], "note": null}\n'),
    'classify-recip_const': (0, '{"case": 8, "params": {"eps": 1}, "basis": ["d_t", "d_x", "exp(t)*d_t+(exp(t)*(u+1))*d_u"], "note": null}\n'),
    'classify-spu_const0': (0, '{"case": 11, "params": {"n": 2, "alpha": 1}, "basis": ["d_t", "d_x", "2*t*d_t+x*d_x", "2*x*d_x+(2*(u+1))*d_u"], "note": null}\n'),
    'classify-text': (0, 'case: 6\nparams: {"p": 1, "q": 1, "eps": 1}\nbasis: ["d_t", "-4*t*d_t+(4*(x^2+1))*d_x+(-(3*((4*x+1)*u)))*d_u"]\nnote: None\n'),
    'conserve-exp': (0, '{"count": 2, "laws": [{"density": "x*u", "flux": "-(x*(exp(u)*u_x))+exp(u)", "characteristic": "x", "divergence_ok": true}, {"density": "u", "flux": "-(exp(u)*u_x)", "characteristic": "1", "divergence_ok": true}]}\n'),
    'conserve-none': (0, '{"count": 0, "laws": []}\n'),
    'conserve-power-x': (0, '{"count": 2, "laws": [{"density": "x*(exp(t)*u)", "flux": "exp(t)*(-(x*(u*u_x))+u^2/2)", "characteristic": "x*exp(t)", "divergence_ok": true}, {"density": "exp(t)*u", "flux": "-(exp(t)*(u*u_x))", "characteristic": "exp(t)", "divergence_ok": true}]}\n'),
    'conserve-recip': (0, '{"count": 2, "laws": [{"density": "x*(exp(-t)*u)", "flux": "exp(-t)*(-(x*((u+1)^-1*u_x))+ln(u+1))", "characteristic": "x*exp(-t)", "divergence_ok": true}, {"density": "exp(-t)*u", "flux": "-(exp(-t)*((u+1)^-1*u_x))", "characteristic": "exp(-t)", "divergence_ok": true}]}\n'),
    'conserve-shifted': (0, '{"count": 2, "laws": [{"density": "x*u", "flux": "-(x*((u+1)^2*u_x))+(u+1)^3/3", "characteristic": "x", "divergence_ok": true}, {"density": "u", "flux": "-((u+1)^2*u_x)", "characteristic": "1", "divergence_ok": true}]}\n'),
    'exact-case5': (0, '{"case": 5, "solution": "0.5*exp(x)", "domain": "all (t, x)", "max_residual": 0.0}\n'),
    'exact-case6': (0, '{"case": 6, "solution": "2.3855451743773544*((x^2+1)^-1.5*exp(arctan(x))^-0.75)", "domain": "x^2 + p > 0", "max_residual": 4.347571131218279e-15}\n'),
    'exact-case6-pm1': (0, '{"case": 6, "solution": "1.480583264571554*((x^2+-1)^-1.5*(abs((x-1)/(x+1))^2.5)^-0.75)", "domain": "x^2 + p > 0; x > 1", "max_residual": 2.4291101424491547e-14}\n'),
    'exact-nonclassical': (0, '{"case": "nonclassical", "solution": "2*exp(t*x)", "domain": "solves u_t = (u^(-1) u_x)_x + x u for any C != 0", "max_residual": 0.0}\n'),
    'reduce': (0, '{"label": "4.1", "case": 4, "subalgebra": "1", "ansatz": "phi^0.3333333333333333", "omega": "x", "reduced": "phi_ww+3*(w^3*phi^0.3333333333333333)", "algebraic": null, "params": {"n": 2.0, "q": 3.0, "eps": 1}}\n'),
    'residual': (0, '{"max_residual": 0.5786373619115645}\n'),
    'simulate-explicit': (0, 't,x,u\n0.0,1.0,0.5\n0.0,1.1428571428571428,0.5714285714285714\n0.0,1.2857142857142856,0.6428571428571428\n0.0,1.4285714285714286,0.7142857142857143\n0.0,1.5714285714285714,0.7857142857142857\n0.0,1.7142857142857142,0.8571428571428571\n0.0,1.8571428571428572,0.9285714285714286\n0.0,2.0,1.0\n0.001,1.0,0.5\n0.001,1.1428571428571428,0.5725672636401499\n0.001,1.2857142857142856,0.6445448771345272\n0.001,1.4285714285714286,0.7167253227821742\n0.001,1.5714285714285714,0.7891560807996668\n0.001,1.7142857142857142,0.8618896293211161\n0.001,1.8571428571428572,0.9349834443981675\n0.001,2.0,1.0\n0.002,1.0,0.5\n0.002,1.1428571428571428,0.573705448933803\n0.002,1.2857142857142856,0.646247106869488\n0.002,1.4285714285714286,0.7191884677515503\n0.002,1.5714285714285714,0.7926351006834711\n0.002,1.7142857142857142,0.866693981734191\n0.002,1.8571428571428572,0.9410632697156334\n0.002,2.0,1.0\n'),
    'simulate-explicit-noflux': (0, 't,x,u\n0.0,0.0,1.0\n0.0,0.14285714285714285,1.0204081632653061\n0.0,0.2857142857142857,1.0816326530612246\n0.0,0.42857142857142855,1.183673469387755\n0.0,0.5714285714285714,1.3265306122448979\n0.0,0.7142857142857142,1.510204081632653\n0.0,0.8571428571428571,1.7346938775510203\n0.0,1.0,2.0\n0.001,0.0,1.001497461928934\n0.001,0.14285714285714285,1.0223937960668017\n0.001,0.2857142857142857,1.083596096754777\n0.001,0.42857142857142855,1.1856167176476773\n0.001,0.5714285714285714,1.3284745894462946\n0.001,0.7142857142857142,1.5121873192561268\n0.001,0.8571428571428571,1.73676782672857\n0.001,1.0,1.9974661921708186\n0.002,0.0,1.0030078798895077\n0.002,0.14285714285714285,1.0243680195423739\n0.002,0.2857142857142857,1.0855608312795846\n0.002,0.42857142857142855,1.1875618609684828\n0.002,0.5714285714285714,1.330420943390001\n0.002,0.7142857142857142,1.5141732159754435\n0.002,0.8571428571428571,1.7387670138842723\n0.002,1.0,1.9950082350703342\n'),
    'simulate-implicit': (0, 't,x,u\n0.0,0.0,1.0\n0.0,0.14285714285714285,1.0204081632653061\n0.0,0.2857142857142857,1.0816326530612246\n0.0,0.42857142857142855,1.183673469387755\n0.0,0.5714285714285714,1.3265306122448979\n0.0,0.7142857142857142,1.510204081632653\n0.0,0.8571428571428571,1.7346938775510203\n0.0,1.0,2.0\n0.01,0.0,1.0158984550291872\n0.01,0.14285714285714285,1.0396501915011942\n0.01,0.2857142857142857,1.1012781782784704\n0.01,0.42857142857142855,1.203259439784699\n0.01,0.5714285714285714,1.3461053929473357\n0.01,0.7142857142857142,1.529615812607036\n0.01,0.8571428571428571,1.750521768385398\n0.01,1.0,1.980481728259917\n0.02,0.0,1.0324784276770749\n0.02,0.14285714285714285,1.0585910914440713\n0.02,0.2857142857142857,1.1209003893989187\n0.02,0.42857142857142855,1.2229515882476212\n0.02,0.5714285714285714,1.3656960693582096\n0.02,0.7142857142857142,1.5483154437984643\n0.02,0.8571428571428571,1.7631377632673226\n0.02,1.0,1.965516061935093\n'),
    'simulate-implicit-dirichlet': (0, 't,x,u\n0.0,1.0,0.5\n0.0,1.1428571428571428,0.5714285714285714\n0.0,1.2857142857142856,0.6428571428571428\n0.0,1.4285714285714286,0.7142857142857143\n0.0,1.5714285714285714,0.7857142857142857\n0.0,1.7142857142857142,0.8571428571428571\n0.0,1.8571428571428572,0.9285714285714286\n0.0,2.0,1.0\n0.01,1.0,0.51\n0.01,1.1428571428571428,0.5840055499847876\n0.01,1.2857142857142856,0.6614216256237568\n0.01,1.4285714285714286,0.7411626428275458\n0.01,1.5714285714285714,0.8228726818199645\n0.01,1.7142857142857142,0.9041902902042985\n0.01,1.8571428571428572,0.9762364892012152\n0.01,2.0,1.010050167084168\n0.02,1.0,0.52\n0.02,1.1428571428571428,0.597872640310497\n0.02,1.2857142857142856,0.6819209153137582\n0.02,1.4285714285714286,0.7704276605100282\n0.02,1.5714285714285714,0.861393692701599\n0.02,1.7142857142857142,0.9480775915331345\n0.02,1.8571428571428572,1.0136090656498495\n0.02,2.0,1.0202013400267558\n0.03,1.0,0.53\n0.03,1.1428571428571428,0.6131400559044576\n0.03,1.2857142857142856,0.7044728789991619\n0.03,1.4285714285714286,0.8016493420205646\n0.03,1.5714285714285714,0.8999169573796073\n0.03,1.7142857142857142,0.9879936213613467\n0.03,1.8571428571428572,1.0445044668737768\n0.03,2.0,1.030454533953517\n'),
    'symmetries': (0, '{"basis": ["d_t", "d_x", "2*t*d_t+x*d_x", "2*x*d_x+(2*(u+1))*d_u"]}\n'),
    'transform-10-to-11': (0, '{"map": "10-to-11", "transformed": {"D": {"family": "power_u", "n": 2.0000000000000013}, "h": {"family": "constant", "c": 0}}, "target_case": 11, "target_params": {"n": 2.0, "alpha": 0.0}, "classified_case": 11}\n'),
    'transform-11a-to-11': (0, '{"map": "11a-to-11", "transformed": {"D": {"family": "power_u", "n": 2.0000000000000013}, "h": {"family": "constant", "c": 0}}, "target_case": 11, "target_params": {"n": 2.0, "alpha": 0.0}, "classified_case": 11}\n'),
    'transform-12-to-13': (0, '{"map": "12-to-13", "transformed": {"D": {"family": "power_u", "n": -1.3333333333333337}, "h": {"family": "constant", "c": 0}}, "target_case": 13, "target_params": {"alpha": 0.0}, "classified_case": 13}\n'),
    'transform-6p0-to-5': (0, '{"map": "6p0-to-5", "transformed": {"D": {"family": "power_u", "n": -1.3333333333333337}, "h": {"expr": "exp(-2/(-1/-x))"}}, "target_case": 5, "target_params": {"n": -1.3333333333333333, "eps": 1}, "classified_case": 5}\n'),
    'transform-case8-out': (0, '{"map": "case8-out", "outside_class": true, "target": "u_t = (u^-1 u_x)_x - (1)", "note": "image is not of the form u_t = (D(u) u_x)_x + h(x) u"}\n'),
    'verify-symmetry-fail': (1, '{"passed": false, "max_residual": 0.5872046899963526}\n'),
    'verify-symmetry-pass': (0, '{"passed": true, "max_residual": 1.0230916386913044e-16}\n'),
}


def run_case(argv, tmp_path, capsys):
    """Exit code and stdout of one case, with its equation written to a file."""
    at = argv.index("--eq") + 1
    path = tmp_path / f"{argv[at]}.json"
    path.write_text(json.dumps(EQUATIONS[argv[at]]))
    argv = [*argv[:at], str(path), *argv[at + 1:], "--seed", "42"]
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    assert run_case(CASES[name], tmp_path, capsys) == GOLDEN[name]
