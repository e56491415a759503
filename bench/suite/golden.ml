(* Fingerprints at the default seed, per (workload, profile). They pin
   the simulated behaviour, not host time: a change that means to alter
   what the simulator computes updates them, and any other change must
   leave them alone. Regenerate with `suite.exe run --seed 1` (and
   `--profile smoke`), which prints each workload's fingerprint. *)

let fingerprints =
  [
    (("fleet-churn", "full"), "46b4e506be545345e2fcdf0e5a8ba694");
    (("fleet-park", "full"), "d240dcca76f7f9087900d7558430d523");
    (("radio-mesh", "full"), "7b21fcdb30d0a3a425731bf890e9afcb");
    (("rot-attest", "full"), "e7610be4f076dfba58038a6fdbe4bd13");
    (("fleet-churn", "smoke"), "5adbd4867182fd395d28026dbeb183cc");
    (("fleet-park", "smoke"), "9c9dd842f6803fcedbedad8e738e5bd0");
    (("radio-mesh", "smoke"), "1b331fcfb688ac8f9bcd64e7fbceb50c");
    (("rot-attest", "smoke"), "6108b32e36bd85e880735e8b1a03482c");
  ]
