let () =
  Alcotest.run "fetch"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
      ("elf", Test_elf.suite);
      ("x86", Test_x86.suite);
      ("dwarf", Test_dwarf.suite);
      ("synth", Test_synth.suite);
      ("analysis", Test_analysis.suite);
      ("check", Test_check.suite);
      ("core", Test_core.suite);
      ("baselines", Test_baselines.suite);
      ("rop", Test_rop.suite);
      ("eval", Test_eval.suite);
      ("adversarial", Test_adversarial.suite);
      ("pe", Test_pe.suite);
      ("serve", Test_serve.suite);
    ]
