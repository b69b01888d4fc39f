"""Ports of the reference algebra/info/catalog unit tests
(algebra.rs:150-168, info.rs:77-100, body.rs:619-631)."""

import pytest

from pdfrust_ray.pdfref.numbers import Matrix, Number, f32


def test_matrix_mul_identity():
    ident = Matrix()
    m1 = Matrix(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert m1 * ident == m1


def test_matrix_mul_2():
    m1 = Matrix(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    m2 = Matrix(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert m1 * m2 == Matrix(7.0, 10.0, 15.0, 22.0, 28.0, 40.0)


def test_number_semantics():
    # Int / Int -> Real (algebra.rs:41)
    r = Number.int(1) / Number.int(3)
    assert not r.is_int
    assert r.val == f32(1 / 3)
    # Int * Int stays Int; mixed goes Real
    assert (Number.int(3) * Number.int(4)) == Number.int(12)
    assert not (Number.int(3) * Number.real(4.0)).is_int
    assert (-Number.int(5)) == Number.int(-5)


def test_info_dict_port():
    # info.rs:83-99
    from pdfrust_ray.pdfref.objects import object_at
    from pdfrust_ray.pdfref.xref import XRefTable

    data = (
        b"1 0 obj\n<< /Title (sample) /Author (Philip Hutchison) /Creator (Pages) "
        b"/Producer (Mac OS X 10.5.4 Quartz PDFContext)\n"
        b"/CreationDate (D:20080701052447Z00'00') /ModDate (D:20080701052447Z00'00')\n>>\nendobj"
    )
    d = object_at(data, 0, XRefTable())
    assert str(d["Title"]) == "sample"
    assert str(d["Author"]) == "Philip Hutchison"
    assert str(d["CreationDate"]) == "D:20080701052447Z00'00'"


def test_catalog_unresolvable_pages_is_none():
    # body.rs:626-630: with an empty xref the Pages ref resolves to None
    from pdfrust_ray.pdfref.body import Catalog, DocCtx
    from pdfrust_ray.pdfref.objects import object_at
    from pdfrust_ray.pdfref.xref import XRefTable

    data = b"1 0 obj  % entry point\n    <<\n      /Type /Catalog\n      /Pages 2 0 R\n    >>\n    endobj"
    xref = XRefTable()
    obj = object_at(data, 0, xref)
    cat = Catalog(obj, DocCtx(data, xref))
    assert cat.pages is None


def test_rust_f32_formatting_edges():
    from pdfrust_ray.pdfref.numbers import rust_f32_debug, rust_f32_display

    assert rust_f32_display(f32(1.0)) == "1"
    assert rust_f32_debug(f32(1.0)) == "1.0"
    assert rust_f32_display(f32(215.890625)) == "215.89063"  # ties round half-up
    assert rust_f32_debug(f32(1e-5)) == "1e-5"
    assert rust_f32_debug(f32(1e16)) == "1e16"
    assert rust_f32_display(f32(-0.0)) == "-0"


def test_rectangle_and_space_width():
    from pdfrust_ray.pdfref.body import Font, Rectangle
    from pdfrust_ray.pdfref.errors import ParseError as PE

    r = Rectangle([Number.int(0), Number.int(0), Number.real(200.0), Number.real(200.0)])
    assert r.values[2].val == 200.0
    with pytest.raises(PE):
        Rectangle([Number.int(1)])

    f = Font.__new__(Font)
    f.subtype = "Type1"
    f.name = None
    f.base_font = "X"
    f.first_char = Number.int(32)
    f.last_char = None
    f.widths = [Number.int(250), Number.int(500)]
    f.to_unicode = None
    f.encoding = None
    # space (0x20) is first_char -> width 250/1000; below FirstChar and
    # without Widths the width is 0 (body.rs:186-203)
    assert f.width_f32(0x20) == f32(0.25)
    assert f.width_f32(0x1F) == 0.0
    f.widths = None
    assert f.width_f32(0x20) == 0.0


def test_f32_saturates_to_inf_like_rust():
    # struct.pack raises on overflow; Rust f64->f32 casts saturate.
    # Verified vs the reference binary: giant widths/Tm values flow
    # through the advance math as +/-inf (NaN in tm.f), text unchanged.
    from pdfrust_ray.pdfref.numbers import f32

    assert f32(1e39) == float("inf")
    assert f32(-1e39) == float("-inf")
    assert f32(3.4e38) != float("inf")  # below f32::MAX stays finite
