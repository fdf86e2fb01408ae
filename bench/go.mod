// The benchmark is a module of its own so that it builds from its own
// directory with its own build file; the import path prefix chipletnoc/
// is what lets it reach the simulator's internal packages.
module chipletnoc/bench

go 1.22

require chipletnoc v0.0.0

replace chipletnoc => ../
