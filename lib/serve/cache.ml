(* A re-export kept only for the benchmark's traced serve replica, which
   names [Isched_serve.Cache]; the implementation is [Isched_util.Cache]. *)
include Isched_util.Cache
