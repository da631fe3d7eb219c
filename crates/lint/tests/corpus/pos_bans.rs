//@ path: crates/demo/src/lib.rs
// Seeded positive: one single-line hit for every classic ban.

pub fn f(v: Option<u32>) -> u32 {
    println!("starting");
    dbg!(&v);
    let w = v.unwrap();
    let x = v.expect("must exist");
    if w != x {
        panic!("mismatch")
    }
    todo!();
    unimplemented!()
}

pub fn g() {
    let _h = std::thread::spawn(|| 1);
    std::thread::scope(|_s| {});
    let _t = std::time::Instant::now();
    let _u = std::time::SystemTime::now();
    let _p = cm_par::ParConfig::from_env();
}

pub unsafe fn h() {}
