"""Render the standard configurations to SVG files in ./gallery/."""

from pathlib import Path

from fatpoints.configs import on_conic, star, star_minus_one, type9
from fatpoints.svgplot import render_svg


def main():
    out = Path("gallery")
    out.mkdir(exist_ok=True)

    (out / "star4.svg").write_text(render_svg(star(4, seed=1)[0]))
    (out / "star5.svg").write_text(render_svg(star(5, seed=1)[0]))
    (out / "type9.svg").write_text(render_svg(type9()))

    (out / "conic6.svg").write_text(render_svg(on_conic(6)))
    (out / "minusone5.svg").write_text(render_svg(star_minus_one(5, seed=1)))

    for f in sorted(out.glob("*.svg")):
        print(f"wrote {f}")


if __name__ == "__main__":
    main()
