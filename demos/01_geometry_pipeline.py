"""Walk through the geometric core: polygon -> mask -> contour -> distances.

    python3 demos/01_geometry_pipeline.py
"""

import numpy as np

from annodiff.raster import contour, edt_squared, rasterize


def show(mask, title, charset=".#"):
    print(f"\n{title}")
    for row in mask:
        print("  " + "".join(charset[int(v)] for v in row))


def main():
    # A small pentagon on a 16x12 grid. Coordinates are continuous; a pixel
    # belongs to the shape when its center (col + 0.5, row + 0.5) is inside.
    ring = [3.0, 2.0, 12.5, 3.0, 13.0, 9.0, 7.0, 10.5, 2.0, 8.0]
    mask = rasterize([ring], 16, 12)
    show(mask, "filled polygon (pixel-center, even-odd rule):")

    edge = contour(mask)
    show(edge, "contour = foreground removed by one erosion:")

    # The exact Euclidean distance map to the contour. Squared distances are
    # integers inside; the square root happens only at read-out, so values
    # like sqrt(5) are exact to the last bit.
    dist = np.sqrt(edt_squared(edge))
    print("\ndistance-to-contour map (rounded to 1 decimal):")
    for row in dist:
        print("  " + " ".join(f"{v:4.1f}" for v in row))

    inner = dist[mask].max()
    print(f"\ndeepest interior pixel sits {inner:.3f} px from the boundary")

    # Holes: a second ring flips parity, carving out its interior.
    donut = rasterize([[1, 1, 10, 1, 10, 10, 1, 10], [4, 4, 7, 4, 7, 7, 4, 7]], 12, 12)
    show(donut, "two rings, even-odd fill -> a hole:")


if __name__ == "__main__":
    main()
