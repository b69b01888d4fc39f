"""Batch-112: per-source Simpson language concentration, bookend census."""

from tools.contract_check import compare_twin

SF = "/root/testdata/sf0.001"


def test_source_lang_simpson_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        source_lang_simpson,
        source_lang_simpson_sql,
    )

    mine = source_lang_simpson(SF)
    compare_twin(mine, con, source_lang_simpson_sql())
    # rational is exact: num <= den, ppm recomputes, docs reconcile
    assert (mine["simpson_num"] <= mine["simpson_den"]).all()
    assert (
        mine["simpson_ppm"] == mine["simpson_num"] * 1_000_000 // mine["simpson_den"]
    ).all()
    assert int(mine["n_docs"].sum()) == con.execute(
        "SELECT COUNT(*) FROM documents"
    ).fetchone()[0]
    # a source with a single language has lambda == 1 exactly
    mono = mine[mine["n_langs"] == 1]
    assert (mono["simpson_num"] == mono["simpson_den"]).all()


def test_user_bookend_types_oracle(ray_session, con):
    from pdfrust_ray.pipelines.relational import (
        user_bookend_types,
        user_bookend_types_sql,
    )

    mine = user_bookend_types(SF)
    compare_twin(mine, con, user_bookend_types_sql())
    # one row per user folds into the census total
    assert int(mine["n_users"].sum()) == con.execute(
        "SELECT COUNT(DISTINCT user_id) FROM events"
    ).fetchone()[0]
    # single-event users must land on the diagonal: every off-diagonal
    # pair implies >= 2 events, so diagonal count >= #single-event users
    singles = con.execute(
        "SELECT COUNT(*) FROM (SELECT user_id FROM events GROUP BY 1 HAVING COUNT(*) = 1)"
    ).fetchone()[0]
    diag = int(mine[mine["first_type"] == mine["last_type"]]["n_users"].sum())
    assert diag >= singles
