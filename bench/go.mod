module github.com/retrodb/retro/bench

go 1.21

require github.com/retrodb/retro v0.0.0

replace github.com/retrodb/retro => ../
