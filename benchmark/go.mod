module bufir/benchmark

go 1.22

require bufir v0.0.0

replace bufir => ../
