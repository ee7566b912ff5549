//go:build race

package pta_test

func init() { raceBuild = true }
