module o2pc/benchmark

go 1.23

require o2pc v0.0.0

// The benchmark builds against the checkout it sits in; the module path
// keeps the o2pc/ prefix so it may import o2pc/internal/... packages.
replace o2pc => ../
