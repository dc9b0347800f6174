//! Codecs for estimator state: [`QuickSelState`] (and everything it
//! contains) to and from the sectioned container format.
//!
//! All floating-point values travel as IEEE-754 bit patterns, so a
//! decode-encode round trip is byte-identical and a restored estimator
//! reproduces its source **bit for bit** — the durability layer's
//! equality contract leans entirely on this.
//!
//! Decoding validates structure (lengths, tags, bounds) and returns
//! [`PersistError`] on anything inconsistent; semantic validation
//! (positive volumes, finite weights, cross-field invariants) happens in
//! [`QuickSel::try_from_state`], whose [`StateError`] is wrapped into
//! [`PersistError::Invalid`]. Nothing in this module panics on corrupt
//! input.
//!
//! [`QuickSel::try_from_state`]: quicksel_core::QuickSel::try_from_state
//! [`StateError`]: quicksel_core::StateError

use crate::format::{write_container, Container, PutBytes, Reader};
use crate::PersistError;
use quicksel_core::{QuickSelConfig, QuickSelState, RefinePolicy, TrainerState};
use quicksel_data::ObservedQuery;
use quicksel_geometry::{ColumnMeta, ColumnType, Domain, Interval, Rect};
use quicksel_linalg::{CsrMatrix, DMatrix};

/// Magic of an estimator-state container.
pub const STATE_MAGIC: [u8; 4] = *b"QSES";
/// The estimator-state format version: the one layout this build writes
/// and the only one it reads. A container stamped with any other version
/// is refused with [`PersistError::UnsupportedVersion`].
///
/// The trainer section keeps only what cannot be recomputed: `A` as
/// compressed sparse rows (per row, the nonzero count, the ascending
/// column indices, then the values), `s`, `Aᵀs`, and the factor as its
/// order followed by the m(m+1)/2 entries of its lower triangle, row by
/// row. `Q` and `AᵀA` are pure functions of the supports and of `A`.
///
/// Five slots are reserved: they hold knobs the estimator no longer
/// has. The encoder writes the values under which the estimator behaves
/// as it does now, and the decoder reads them and ignores them:
///
/// * the config's sizing-neighbour count, written as 10 (§3.3's k);
/// * the config's training tag, written as 0 (the analytic solve). A
///   decoder still refuses a tag other than 0 or 1. A capture with tag 1
///   (the standard QP, solved by ADMM) has no trainer section, since that
///   path cached none, so its next refine is a cold analytic build.
/// * the config's warm-refine limit, written as `usize::MAX` (no cap). A
///   capture with a finite limit restores without it: the drift detector
///   alone decides when a refine resamples cold.
/// * the config's drift ratio, written as 3.0;
/// * the trainer's warm-refine count, written as 0.
pub const STATE_VERSION: u16 = 3;

const SEC_DOMAIN: [u8; 4] = *b"DOMN";
const SEC_CONFIG: [u8; 4] = *b"CONF";
const SEC_QUERIES: [u8; 4] = *b"QRYS";
const SEC_POINTS: [u8; 4] = *b"PNTS";
const SEC_MODEL: [u8; 4] = *b"MODL";
const SEC_MISC: [u8; 4] = *b"MISC";
const SEC_TRAINER: [u8; 4] = *b"TRNR";

fn put_interval(out: &mut Vec<u8>, iv: &Interval) {
    out.put_f64(iv.lo);
    out.put_f64(iv.hi);
}

fn get_interval(r: &mut Reader<'_>) -> Result<Interval, PersistError> {
    Ok(Interval::new(r.f64("interval lo")?, r.f64("interval hi")?))
}

/// Encodes a [`Rect`] (dimension count, then per-side lo/hi as IEEE-754
/// bit patterns). This layout is shared verbatim by the state snapshot,
/// the feedback WAL
/// ([`ObservedQuery::encode_into`](quicksel_data::ObservedQuery::encode_into)
/// is exactly this plus one selectivity `f64`), and the network wire
/// protocol — one rectangle codec, bit-exact everywhere.
pub fn encode_rect(out: &mut Vec<u8>, rect: &Rect) {
    out.put_u32(rect.sides().len() as u32);
    for side in rect.sides() {
        put_interval(out, side);
    }
}

/// Decodes an [`encode_rect`] rectangle, bounding the claimed dimension
/// count against the remaining bytes so a hostile length can neither
/// over-allocate nor panic.
pub fn decode_rect(r: &mut Reader<'_>) -> Result<Rect, PersistError> {
    let dim = r.u32("rect dim")? as usize;
    if dim.saturating_mul(16) > r.remaining() {
        return Err(PersistError::Truncated { context: "rect sides" });
    }
    let sides = (0..dim).map(|_| get_interval(r)).collect::<Result<Vec<_>, _>>()?;
    Ok(Rect::new(sides))
}

/// Encodes a [`Domain`] (column names, types, dictionaries, bounds).
pub fn encode_domain(out: &mut Vec<u8>, domain: &Domain) {
    out.put_u32(domain.columns().len() as u32);
    for col in domain.columns() {
        out.put_str(&col.name);
        match &col.ty {
            ColumnType::Real => out.put_u32(0),
            ColumnType::Integer => out.put_u32(1),
            ColumnType::Categorical(dict) => {
                out.put_u32(2);
                out.put_u32(dict.len() as u32);
                for v in dict {
                    out.put_str(v);
                }
            }
        }
        put_interval(out, &col.bounds);
    }
}

/// Decodes a [`Domain`], rejecting (not panicking on) empty schemas and
/// empty column bounds — the invariants `Domain::new` asserts.
pub fn decode_domain(r: &mut Reader<'_>) -> Result<Domain, PersistError> {
    let count = r.u32("column count")? as usize;
    if count == 0 {
        return Err(PersistError::Invalid { context: "domain has no columns" });
    }
    let mut columns = Vec::with_capacity(count.min(r.remaining()));
    for _ in 0..count {
        let name = r.str("column name")?;
        let ty = match r.u32("column type tag")? {
            0 => ColumnType::Real,
            1 => ColumnType::Integer,
            2 => {
                let n = r.u32("dictionary length")? as usize;
                if n.saturating_mul(4) > r.remaining() {
                    return Err(PersistError::Truncated { context: "dictionary" });
                }
                let dict = (0..n).map(|_| r.str("dictionary entry")).collect::<Result<_, _>>()?;
                ColumnType::Categorical(dict)
            }
            _ => return Err(PersistError::Invalid { context: "unknown column type tag" }),
        };
        let bounds = get_interval(r)?;
        let len = bounds.length();
        if len.is_nan() || len <= 0.0 {
            return Err(PersistError::Invalid { context: "column bounds are empty" });
        }
        columns.push(ColumnMeta { name, ty, bounds });
    }
    Ok(Domain::new(columns))
}

fn put_config(out: &mut Vec<u8>, c: &QuickSelConfig) {
    out.put_f64(c.lambda);
    out.put_f64(c.ridge_rel);
    out.put_usize(c.points_per_query);
    out.put_usize(c.subpops_per_query);
    out.put_usize(c.max_subpops);
    out.put_usize(10); // reserved: sizing-neighbour count
    out.put_f64(c.overlap_factor);
    match c.refine_policy {
        RefinePolicy::EveryQuery => out.put_u32(0),
        RefinePolicy::EveryK(k) => {
            out.put_u32(1);
            out.put_usize(k);
        }
        RefinePolicy::Manual => out.put_u32(2),
    }
    out.put_u32(0); // reserved: training tag
    out.put_u64(c.seed);
    out.put_usize(usize::MAX); // reserved: warm-refine limit
    out.put_usize(c.max_history);
    out.put_f64(3.0); // reserved: drift ratio
    out.put_usize(c.drift_patience);
}

fn get_config(r: &mut Reader<'_>) -> Result<QuickSelConfig, PersistError> {
    let lambda = r.f64("lambda")?;
    let ridge_rel = r.f64("ridge_rel")?;
    let points_per_query = r.usize("points_per_query")?;
    let subpops_per_query = r.usize("subpops_per_query")?;
    let max_subpops = r.usize("max_subpops")?;
    r.usize("sizing-neighbour count")?;
    let overlap_factor = r.f64("overlap_factor")?;
    let refine_policy = match r.u32("refine policy tag")? {
        0 => RefinePolicy::EveryQuery,
        1 => RefinePolicy::EveryK(r.usize("refine k")?),
        2 => RefinePolicy::Manual,
        _ => return Err(PersistError::Invalid { context: "unknown refine policy tag" }),
    };
    if r.u32("training tag")? > 1 {
        return Err(PersistError::Invalid { context: "unknown training method tag" });
    }
    let seed = r.u64("seed")?;
    r.usize("warm-refine limit")?;
    let max_history = r.usize("max_history")?;
    r.f64("drift ratio")?;
    let drift_patience = r.usize("drift_patience")?;
    Ok(QuickSelConfig {
        lambda,
        ridge_rel,
        points_per_query,
        subpops_per_query,
        max_subpops,
        overlap_factor,
        refine_policy,
        seed,
        max_history,
        drift_patience,
    })
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    out.put_usize(xs.len());
    for &v in xs {
        out.put_f64(v);
    }
}

fn get_f64s(r: &mut Reader<'_>, context: &'static str) -> Result<Vec<f64>, PersistError> {
    let n = r.bounded_len(8, context)?;
    (0..n).map(|_| r.f64(context)).collect()
}

/// Writes `A` as compressed sparse rows: the row count, then per row its
/// nonzero count (`u32`), its column indices (`u32`) and its values.
fn put_csr(out: &mut Vec<u8>, a: &CsrMatrix) {
    out.put_usize(a.rows());
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        out.put_u32(cols.len() as u32);
        for &c in cols {
            out.put_u32(c);
        }
        for &v in vals {
            out.put_f64(v);
        }
    }
}

/// Reads a [`put_csr`] matrix of `cols` columns. Each row's claimed
/// nonzero count is checked against `cols` and against the bytes left
/// before its entries are read, and its columns must be strictly
/// ascending and below `cols`.
fn get_csr(r: &mut Reader<'_>, cols: usize) -> Result<CsrMatrix, PersistError> {
    let rows = r.bounded_len(4, "constraint row count")?;
    let mut a = CsrMatrix::new(cols);
    let (mut idx, mut vals) = (Vec::new(), Vec::new());
    for _ in 0..rows {
        let nnz = r.u32("constraint row nonzeros")? as usize;
        if nnz > cols {
            return Err(PersistError::Invalid {
                context: "constraint row has more nonzeros than columns",
            });
        }
        if nnz.saturating_mul(12) > r.remaining() {
            return Err(PersistError::Truncated { context: "constraint row entries" });
        }
        idx.clear();
        vals.clear();
        for _ in 0..nnz {
            idx.push(r.u32("constraint column")?);
        }
        for _ in 0..nnz {
            vals.push(r.f64("constraint value")?);
        }
        a.push_row(&idx, &vals).map_err(|_| PersistError::Invalid {
            context: "constraint row columns are not strictly ascending and in range",
        })?;
    }
    Ok(a)
}

/// Writes a lower-triangular factor as its order, then the m(m+1)/2
/// entries on and below its diagonal, row by row.
fn put_lower_triangle(out: &mut Vec<u8>, l: &DMatrix) {
    out.put_usize(l.rows());
    for i in 0..l.rows() {
        for &v in &l.row(i)[..=i] {
            out.put_f64(v);
        }
    }
}

/// Reads a [`put_lower_triangle`] factor, checking the entry count its
/// order implies against the bytes left before allocating it.
fn get_lower_triangle(r: &mut Reader<'_>) -> Result<DMatrix, PersistError> {
    let order = r.usize("factor order")?;
    let entries = order
        .checked_add(1)
        .and_then(|next| order.checked_mul(next))
        .ok_or(PersistError::Invalid { context: "factor order overflows" })?
        / 2;
    if entries.saturating_mul(8) > r.remaining() {
        return Err(PersistError::Truncated { context: "factor entries" });
    }
    let mut l = DMatrix::zeros(order, order);
    for i in 0..order {
        for v in &mut l.row_mut(i)[..=i] {
            *v = r.f64("factor entry")?;
        }
    }
    Ok(l)
}

fn put_trainer(out: &mut Vec<u8>, t: &TrainerState) {
    out.put_usize(t.subpops.len());
    for rect in &t.subpops {
        encode_rect(out, rect);
    }
    put_csr(out, &t.a);
    put_f64s(out, &t.s);
    put_f64s(out, &t.ats);
    put_lower_triangle(out, &t.factor_lower);
    out.put_f64(t.lambda);
    out.put_f64(t.ridge_abs);
    out.put_usize(0); // reserved: warm-refine count
}

fn get_trainer(r: &mut Reader<'_>) -> Result<TrainerState, PersistError> {
    let m = r.bounded_len(4, "subpop count")?;
    if u32::try_from(m).is_err() {
        return Err(PersistError::Invalid { context: "subpop count overflows the column index" });
    }
    let subpops = (0..m).map(|_| decode_rect(r)).collect::<Result<Vec<_>, _>>()?;
    let a = get_csr(r, m)?;
    let s = get_f64s(r, "selectivity vector")?;
    let ats = get_f64s(r, "ats vector")?;
    let factor_lower = get_lower_triangle(r)?;
    let lambda = r.f64("trainer lambda")?;
    let ridge_abs = r.f64("trainer ridge")?;
    r.usize("warm-refine count")?;
    Ok(TrainerState { subpops, a, s, ats, factor_lower, lambda, ridge_abs })
}

/// Serializes a [`QuickSelState`] capture into a sectioned, checksummed
/// container ([`STATE_MAGIC`] / [`STATE_VERSION`]).
pub fn encode_state(state: &QuickSelState) -> Vec<u8> {
    let mut domain = Vec::new();
    encode_domain(&mut domain, &state.domain);

    let mut config = Vec::new();
    put_config(&mut config, &state.config);

    let mut queries = Vec::new();
    queries.put_usize(state.queries.len());
    for q in &state.queries {
        q.encode_into(&mut queries);
    }

    let mut points = Vec::new();
    points.put_usize(state.point_pool.len());
    for p in &state.point_pool {
        put_f64s(&mut points, p);
    }

    let mut model = Vec::new();
    match &state.model {
        None => model.put_u32(0),
        Some((rects, weights)) => {
            model.put_u32(1);
            model.put_usize(rects.len());
            for rect in rects {
                encode_rect(&mut model, rect);
            }
            put_f64s(&mut model, weights);
        }
    }

    let mut misc = Vec::new();
    for w in state.rng_state {
        misc.put_u64(w);
    }
    misc.put_usize(state.pending_since_refine);
    misc.put_u64(state.version);
    misc.put_u64(state.evicted_total);
    misc.put_u64(state.drift_resamples);
    misc.put_usize(state.compacted_len);
    misc.put_usize(state.compact_counts.len());
    for &c in &state.compact_counts {
        misc.put_u64(c);
    }
    misc.put_usize(state.point_counts.len());
    for &c in &state.point_counts {
        misc.put_u32(c);
    }
    misc.put_f64(state.violation_ewma);
    misc.put_u32(state.drift_strikes);
    misc.put_u32(u32::from(state.force_cold));
    misc.put_u32(u32::from(state.history_dirty));

    let trainer = state.trainer.as_ref().map(|t| {
        let mut buf = Vec::new();
        put_trainer(&mut buf, t);
        buf
    });

    let mut sections: Vec<([u8; 4], &[u8])> = vec![
        (SEC_DOMAIN, &domain),
        (SEC_CONFIG, &config),
        (SEC_QUERIES, &queries),
        (SEC_POINTS, &points),
        (SEC_MODEL, &model),
        (SEC_MISC, &misc),
    ];
    if let Some(t) = &trainer {
        sections.push((SEC_TRAINER, t));
    }
    write_container(STATE_MAGIC, STATE_VERSION, &sections)
}

/// Parses an estimator-state container back into a [`QuickSelState`].
/// Structural failures (bad magic, a version other than
/// [`STATE_VERSION`], checksum mismatch, truncation) surface as their
/// specific [`PersistError`] variants.
pub fn decode_state(bytes: &[u8]) -> Result<QuickSelState, PersistError> {
    let c = Container::open(STATE_MAGIC, STATE_VERSION, bytes)?;

    let mut r = Reader::new(c.section(SEC_DOMAIN)?);
    let domain = decode_domain(&mut r)?;

    let mut r = Reader::new(c.section(SEC_CONFIG)?);
    let config = get_config(&mut r)?;

    let mut r = Reader::new(c.section(SEC_QUERIES)?);
    let n = r.bounded_len(12, "query count")?;
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        let rect = decode_rect(&mut r)?;
        let selectivity = r.f64("query selectivity")?;
        queries.push(ObservedQuery { rect, selectivity });
    }

    let mut r = Reader::new(c.section(SEC_POINTS)?);
    let n = r.bounded_len(8, "point count")?;
    let point_pool =
        (0..n).map(|_| get_f64s(&mut r, "point coordinates")).collect::<Result<Vec<_>, _>>()?;

    let mut r = Reader::new(c.section(SEC_MODEL)?);
    let model = match r.u32("model presence tag")? {
        0 => None,
        1 => {
            let m = r.bounded_len(4, "model support count")?;
            let rects = (0..m).map(|_| decode_rect(&mut r)).collect::<Result<Vec<_>, _>>()?;
            let weights = get_f64s(&mut r, "model weights")?;
            Some((rects, weights))
        }
        _ => return Err(PersistError::Invalid { context: "unknown model presence tag" }),
    };

    let mut r = Reader::new(c.section(SEC_MISC)?);
    let mut rng_state = [0u64; 4];
    for w in &mut rng_state {
        *w = r.u64("rng state word")?;
    }
    let pending_since_refine = r.usize("pending_since_refine")?;
    let training_version = r.u64("training version")?;
    let evicted_total = r.u64("evicted_total")?;
    let drift_resamples = r.u64("drift_resamples")?;
    let compacted_len = r.usize("compacted_len")?;
    let n = r.bounded_len(8, "compact counts")?;
    let compact_counts = (0..n).map(|_| r.u64("compact count")).collect::<Result<Vec<_>, _>>()?;
    let n = r.bounded_len(4, "point counts")?;
    let point_counts = (0..n).map(|_| r.u32("point count")).collect::<Result<Vec<_>, _>>()?;
    let violation_ewma = r.f64("violation_ewma")?;
    let drift_strikes = r.u32("drift_strikes")?;
    let force_cold = r.u32("force_cold")? != 0;
    let history_dirty = r.u32("history_dirty")? != 0;

    let trainer = match c.section_opt(SEC_TRAINER)? {
        None => None,
        Some(bytes) => Some(get_trainer(&mut Reader::new(bytes))?),
    };

    Ok(QuickSelState {
        domain,
        config,
        queries,
        point_pool,
        point_counts,
        compacted_len,
        compact_counts,
        evicted_total,
        drift_resamples,
        violation_ewma,
        drift_strikes,
        force_cold,
        history_dirty,
        model,
        rng_state,
        pending_since_refine,
        version: training_version,
        trainer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_codec_round_trips_all_column_types() {
        let domain = Domain::new(vec![
            ColumnMeta {
                name: "price".into(),
                ty: ColumnType::Real,
                bounds: Interval::new(-1.5, 99.25),
            },
            ColumnMeta {
                name: "year".into(),
                ty: ColumnType::Integer,
                bounds: Interval::new(1990.0, 2031.0),
            },
            ColumnMeta {
                name: "state".into(),
                ty: ColumnType::Categorical(vec!["CA".into(), "MI".into()]),
                bounds: Interval::new(0.0, 2.0),
            },
        ]);
        let mut buf = Vec::new();
        encode_domain(&mut buf, &domain);
        let decoded = decode_domain(&mut Reader::new(&buf)).unwrap();
        assert_eq!(decoded, domain);
    }

    #[test]
    fn empty_or_degenerate_domains_reject_with_typed_errors() {
        let mut buf = Vec::new();
        buf.put_u32(0); // zero columns
        assert!(matches!(decode_domain(&mut Reader::new(&buf)), Err(PersistError::Invalid { .. })));

        // One column with empty bounds: Domain::new would panic; the
        // decoder must reject first.
        let mut buf = Vec::new();
        buf.put_u32(1);
        buf.put_str("x");
        buf.put_u32(0);
        put_interval(&mut buf, &Interval::new(3.0, 3.0));
        assert!(matches!(decode_domain(&mut Reader::new(&buf)), Err(PersistError::Invalid { .. })));
    }
}
