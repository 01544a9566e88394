// Known-bad fixture for L002: panic-class calls in library code.

pub fn bad_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn bad_panic(flag: bool) {
    if flag {
        panic!("boom");
    }
}

pub fn bad_unreachable(v: u8) -> u8 {
    match v {
        0 => 1,
        _ => unreachable!(),
    }
}

pub fn bad_short_expect(x: Option<u32>) -> u32 {
    x.expect("oops")
}

pub fn good_invariant_expect(x: Option<u32>) -> u32 {
    x.expect("caller guarantees the slot was populated in the same quantum")
}

pub fn good_unwrap_or(x: Option<u32>) -> u32 {
    x.unwrap_or(0).max(x.unwrap_or_default())
}

pub fn bad_split_expect(x: Option<u32>) -> u32 {
    x.expect(
        "oops",
    )
}

pub fn good_split_expect(x: Option<u32>) -> u32 {
    x.expect(
        "caller guarantees the slot was populated in the same quantum",
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
        if false {
            panic!("test-only panic is fine");
        }
    }
}
