// The benchmark is a module of its own so that it builds from its own build
// file and stays out of the parent module's ./... patterns (build, vet, lint,
// tier-1 tests). The module path keeps the acuerdo/ prefix, which is what lets
// it import the parent's internal packages.
module acuerdo/benchmark

go 1.23

require acuerdo v0.0.0

replace acuerdo => ../
