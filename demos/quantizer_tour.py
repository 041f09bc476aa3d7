"""Tour of the quantizers: sign, saturated uniform, and explicit levels.

Prints a small table of inputs against each quantizer's output so the
staircase shapes, the tie rule at cell boundaries, and saturation at the
extreme levels are all visible at a glance.
"""

import numpy as np

from quantcs import QuantizerSpec, make_saturated, make_sign, quantize_vec


def main():
    a = np.array([-3.2, -1.0, -0.4, 0.0, 0.25, 0.5, 1.0, 2.7])
    specs = [
        ("sign", make_sign()),
        ("saturated d=1 L=8", make_saturated(1.0, 8)),
        ("saturated d=1 L=4", make_saturated(1.0, 4)),
        ("levels {-2,0,2}", QuantizerSpec([-1.0, 1.0], [-2.0, 0.0, 2.0])),
    ]

    header = "input".rjust(10) + "".join(name.rjust(20) for name, _ in specs)
    print(header)
    print("-" * len(header))
    for x in a:
        row = f"{x:10.2f}"
        for _, spec in specs:
            row += f"{quantize_vec(spec, np.array([x]))[0]:20.2f}"
        print(row)

    # the saturated map agrees with the unclipped uniform map
    # floor(a) + 1/2 inside its range and clamps outside of it
    sat = make_saturated(1.0, 4)
    inside = np.linspace(-1.9, 1.9, 21)
    assert np.array_equal(quantize_vec(sat, inside), np.floor(inside) + 0.5)
    print("\nsaturated == uniform on [-1.9, 1.9]:", True)
    print("saturated at +/-10:", quantize_vec(sat, np.array([-10.0, 10.0])))


if __name__ == "__main__":
    main()
