//! Differential pinning of the bitset σ-type kernel ([`TypeBitsSpace`])
//! against the clone-based [`SigmaType`] operations and the interning
//! cache ([`SatCache`]).
//!
//! Every word-level kernel operation — consistency, saturation, register
//! restriction, joint satisfiability, completions —
//! must agree with the direct implementation on arbitrary generated types,
//! very much including *incomplete* ones (the empty type, duplicated
//! literals like `P(x1); P(x1)`, partially constrained registers), and the
//! `SigmaType → TypeBits → SigmaType` round trip must be the identity.

use proptest::prelude::*;
use rega_data::typebits::TypeBitsSpace;
use rega_data::{Literal, SatCache, Schema, SigmaType, Term};

fn schema() -> Schema {
    Schema::with(&[("P", 1), ("R", 2)], &["c"])
}

const K: u16 = 2;

fn space() -> TypeBitsSpace {
    TypeBitsSpace::new(&schema(), K).expect("k=2 with one constant fits the bit universe")
}

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..K, prop::bool::ANY).prop_map(|(i, x)| if x { Term::x(i) } else { Term::y(i) }),
        (0..K, prop::bool::ANY).prop_map(|(i, x)| if x { Term::x(i) } else { Term::y(i) }),
        Just(Term::cst(0)),
    ]
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    let p = schema().relation("P").unwrap();
    let r = schema().relation("R").unwrap();
    prop_oneof![
        (term_strategy(), term_strategy()).prop_map(|(s, t)| Literal::eq(s, t)),
        (term_strategy(), term_strategy()).prop_map(|(s, t)| Literal::neq(s, t)),
        term_strategy().prop_map(move |t| Literal::rel(p, vec![t])),
        term_strategy().prop_map(move |t| Literal::rel(p, vec![t]).negated()),
        (term_strategy(), term_strategy()).prop_map(move |(s, t)| Literal::rel(r, vec![s, t])),
        (term_strategy(), term_strategy())
            .prop_map(move |(s, t)| Literal::rel(r, vec![s, t]).negated()),
    ]
}

fn type_strategy() -> impl Strategy<Value = SigmaType> {
    // 0..6 literals: the empty (maximally incomplete) type is included and
    // duplicates arise naturally from the collection.
    prop::collection::vec(literal_strategy(), 0..6).prop_map(|lits| SigmaType::new(K, lits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Round trip: decoding an encoded type reproduces it exactly.
    #[test]
    fn encode_decode_is_identity(ty in type_strategy()) {
        let sp = space();
        let b = sp.encode(&ty).expect("generated types fit the space");
        prop_assert_eq!(sp.decode(&b), ty);
    }

    // Every kernel operation agrees with the SigmaType direct path and
    // with the SatCache memoized path.
    #[test]
    fn kernel_ops_agree_with_sigma_type_and_cache(
        a in type_strategy(),
        b in type_strategy(),
    ) {
        let sch = schema();
        let sp = space();
        let cache = SatCache::new(sch.clone());
        let ba = sp.encode(&a).unwrap();
        let bb = sp.encode(&b).unwrap();

        // Consistency.
        prop_assert_eq!(sp.is_consistent(&ba), a.analyze(&sch).is_ok());
        prop_assert_eq!(sp.is_consistent(&ba), cache.is_consistent(&a));

        // Saturation: defined exactly on satisfiable types.
        match (sp.saturate(&ba), a.saturate(&sch)) {
            (Some(sat), Ok(direct)) => prop_assert_eq!(sp.decode(&sat), direct),
            (None, Err(_)) => {}
            (s, d) => prop_assert!(false, "saturate disagrees: {:?} vs {:?}", s, d),
        }

        // Register restriction, at every width down to zero registers.
        for m in 0..=K {
            let sub = sp.sub_space(m).expect("smaller universe fits");
            match (sp.restrict_registers(&ba, m), a.restrict_registers(&sch, m)) {
                (Some(r), Ok(direct)) => prop_assert_eq!(sub.decode(&r), direct),
                (None, Err(_)) => {}
                (r, d) => prop_assert!(false, "restrict({}) disagrees: {:?} vs {:?}", m, r, d),
            }
        }

        // Joint satisfiability, both orders, against both oracles.
        prop_assert_eq!(
            sp.jointly_satisfiable(&ba, &bb).expect("space supports joint"),
            a.jointly_satisfiable_with(&b, &sch)
        );
        prop_assert_eq!(
            sp.jointly_satisfiable(&bb, &ba).unwrap(),
            b.jointly_satisfiable_with(&a, &sch)
        );
        prop_assert_eq!(
            sp.jointly_satisfiable(&ba, &bb).unwrap(),
            cache.jointly_satisfiable(&a, &b)
        );

    }

    // Equality-only restriction (the Theorem 24 database-hiding
    // projection): saturate, keep the (in)equalities over the first `m`
    // registers, drop everything mentioning the database or constants.
    // Defined exactly on satisfiable types, at every width down to zero.
    #[test]
    fn eq_restriction_agrees_with_sigma_type(a in type_strategy()) {
        let sch = schema();
        let sp = space();
        let ba = sp.encode(&a).unwrap();
        for m in 0..=K {
            let sub = sp.sub_space(m).expect("smaller universe fits");
            match (sp.restrict_eq_registers(&ba, m), a.restrict_eq_registers(&sch, m)) {
                (Some(r), Ok(direct)) => prop_assert_eq!(sub.decode(&r), direct),
                (None, Err(_)) => {}
                (r, d) => prop_assert!(
                    false,
                    "restrict_eq({}) disagrees: {:?} vs {:?}", m, r, d
                ),
            }
        }
    }

    // Completions: same set of complete saturated extensions. Confined to
    // a one-register unary-relation universe — over the full k=2 schema
    // with a binary relation the completion set of a near-empty type is
    // combinatorial in Bell(5)·2^(classes²) and infeasible to enumerate,
    // for the bit kernel and the clone path alike.
    #[test]
    fn completions_agree_with_sigma_type(ty in small_type_strategy()) {
        let sch = small_schema();
        let sp = TypeBitsSpace::new(&sch, 1).expect("k=1 unary space fits");
        let b = sp.encode(&ty).expect("small types fit the space");
        match (sp.completions(&b), ty.completions(&sch)) {
            (Ok(bits), Ok(direct)) => {
                let mut got: Vec<SigmaType> = bits.iter().map(|c| sp.decode(c)).collect();
                got.sort();
                prop_assert_eq!(got, direct);
            }
            (Err(_), Err(_)) => {}
            (g, d) => prop_assert!(
                false,
                "completions disagrees: {:?} vs {:?}",
                g.map(|v| v.len()),
                d.map(|v| v.len())
            ),
        }
    }
}

fn small_schema() -> Schema {
    Schema::with(&[("U", 1)], &[])
}

fn small_term_strategy() -> impl Strategy<Value = Term> {
    (0..1u16, prop::bool::ANY).prop_map(|(i, x)| if x { Term::x(i) } else { Term::y(i) })
}

fn small_type_strategy() -> impl Strategy<Value = SigmaType> {
    let u = small_schema().relation("U").unwrap();
    let lit = prop_oneof![
        (small_term_strategy(), small_term_strategy()).prop_map(|(s, t)| Literal::eq(s, t)),
        (small_term_strategy(), small_term_strategy()).prop_map(|(s, t)| Literal::neq(s, t)),
        small_term_strategy().prop_map(move |t| Literal::rel(u, vec![t])),
        small_term_strategy().prop_map(move |t| Literal::rel(u, vec![t]).negated()),
    ];
    prop::collection::vec(lit, 0..4).prop_map(|lits| SigmaType::new(1, lits))
}

/// The issue's pinned incomplete type — `P(x1); P(x1)`, a duplicated
/// positive literal and nothing else — through every kernel operation.
#[test]
fn duplicated_literal_incomplete_type() {
    let sch = schema();
    let sp = space();
    let p = sch.relation("P").unwrap();
    let ty = SigmaType::new(
        K,
        [
            Literal::rel(p, vec![Term::x(0)]),
            Literal::rel(p, vec![Term::x(0)]),
        ],
    );
    let b = sp.encode(&ty).unwrap();
    assert_eq!(sp.decode(&b), ty, "round trip collapses the duplicate");
    assert!(sp.is_consistent(&b));
    assert_eq!(
        sp.decode(&sp.saturate(&b).unwrap()),
        ty.saturate(&sch).unwrap()
    );
    assert!(sp.jointly_satisfiable(&b, &b).unwrap());

    // Completions of the same duplicated-literal shape, in the small
    // universe where the full set is enumerable.
    let sch1 = small_schema();
    let sp1 = TypeBitsSpace::new(&sch1, 1).unwrap();
    let u = sch1.relation("U").unwrap();
    let ty1 = SigmaType::new(
        1,
        [
            Literal::rel(u, vec![Term::x(0)]),
            Literal::rel(u, vec![Term::x(0)]),
        ],
    );
    let b1 = sp1.encode(&ty1).unwrap();
    let mut got: Vec<SigmaType> = sp1
        .completions(&b1)
        .unwrap()
        .iter()
        .map(|c| sp1.decode(c))
        .collect();
    got.sort();
    assert_eq!(got, ty1.completions(&sch1).unwrap());
}

/// `TypeId`-level round trip through the cache: interning a type, fetching
/// its bits, and re-interning the bits lands on the same id.
#[test]
fn cache_typebits_interning_round_trip() {
    let sch = schema();
    let cache = SatCache::new(sch.clone());
    let sp = cache
        .typebits_space(K)
        .expect("k=2 space available for this schema");
    let p = sch.relation("P").unwrap();
    let types = [
        SigmaType::empty(K),
        SigmaType::new(K, [Literal::rel(p, vec![Term::x(0)])]),
        SigmaType::new(
            K,
            [
                Literal::eq(Term::x(0), Term::y(1)),
                Literal::neq(Term::x(1), Term::cst(0)),
            ],
        ),
    ];
    for ty in &types {
        let id = cache.intern(ty);
        let bits = cache.typebits(id).expect("bits memoized for interned id");
        assert_eq!(cache.intern_typebits(&sp, &bits), id);
        assert_eq!(sp.decode(&bits), *ty);
    }
}
