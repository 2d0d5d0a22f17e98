module Ast = Isched_frontend.Ast

type benchmark = { profile : Profile.t; loops : Ast.loop list }

(* Hand-written signature loops.  Each is a small, readable DOACROSS
   kernel in the benchmark's domain flavour; together with the generated
   corpus they set the LFD/LBD mix the paper reports (FLQ52, QCD and
   TRACK all-LBD; MDG and ADM mixed). *)

let flq52_src =
  {|
! FLQ52: transonic-flow relaxation.  The potential PHI carries a short
! recurrence; flux, residual and smoothing statements consume older PHI
! values but do not feed the recurrence back.
DOACROSS I = 2, 101
  S1: FLX[I] = PHI[I-1] * C[I] + E[I+1]
  S2: RES[I] = FLX[I] - Q[I] * PHI[I-2]
  S3: SMO[I] = PHI[I-2] + D[I-1] * C[I+2]
  S4: WRK[I] = E[I] * Q[I+1] + C[I-1]
  S5: PHI[I] = PHI[I-1] + D[I]
ENDDO

DOACROSS I = 1, 100
  S1: W[I] = U[I-1] * R[I] + C[I+2]
  S2: VSC[I] = U[I-2] * D[I] - E[I+1]
  S3: OUT[I] = R[I+1] * R[I-1] + Q[I]
  S4: U[I] = U[I-1] + C[I]
ENDDO
|}

let qcd_src =
  {|
! QCD: lattice link updates; the whole body is one tight recurrence,
! so the synchronization path cannot be shortened much.
DOACROSS I = 1, 100
  S1: LNK[I] = LNK[I-1] * C[I] + E[I]
ENDDO

DOACROSS I = 1, 100
  S1: PLQ[I] = PLQ[I-1] * R[I-1]
  S2: ACT[I] = PLQ[I] + D[I]
ENDDO
|}

let mdg_src =
  {|
! MDG: water-molecule dynamics; positions carry a short recurrence,
! forces accumulate (reduction) and a cutoff test guards the velocity
! update (control dependence).
DOACROSS I = 1, 100
  S1: FRC[I] = POS[I-1] * C[I] + E[I+3]
  S2: IF (R[I] > 0) VEL[I] = FRC[I] * D[I]
  S3: PAIR[I] = POS[I-2] + Q[I] * C[I-1]
  S4: HIST[I] = E[I-1] * D[I+2]
  S5: POS[I] = POS[I-1] + Q[I]
ENDDO

DO I = 1, 100
  S1: EN = EN + FRC[I] * FRC[I]
  S2: OUT[I] = FRC[I+1] * C[I]
ENDDO
|}

let track_src =
  {|
! TRACK: Kalman-style state propagation: the estimate recurrence is
! short, while gain, innovation and covariance statements consume older
! estimates.
DOACROSS I = 1, 100
  S1: GAIN[I] = EST[I-1] * C[I] + R[I]
  S2: INOV[I] = Q[I+1] - GAIN[I] * D[I]
  S3: COV[I] = EST[I-2] * E[I] + R[I-1]
  S4: LOGP[I] = C[I+2] * D[I-2] + Q[I]
  S5: EST[I] = EST[I-1] + E[I]
ENDDO

DOACROSS I = 1, 100
  S1: PRD[I] = SMO[I-2] * C[I+1]
  S2: RSD[I] = SMO[I-1] + R[I] * E[I-1]
  S3: SMO[I] = SMO[I-2] + R[I]
ENDDO
|}

let adm_src =
  {|
! ADM: pollutant transport; a forward-dependence advection sweep plus a
! diffusion recurrence and an induction-stepped source term.
DOACROSS I = 1, 100
  S1: CON[I] = Q[I] + E[I-2] * C[I]
  S2: ADV[I] = CON[I-1] * D[I]
ENDDO

DOACROSS I = 1, 100
  S1: K = K + 2
  S2: SRC[I] = DIF[I-3] * C[I] + K
  S3: SET[I] = DIF[I-1] + E[I] * Q[I-2]
  S4: DIF[I] = DIF[I-3] + C[I+1]
ENDDO
|}

let signature_sources (p : Profile.t) =
  match p.Profile.name with
  | "FLQ52" -> flq52_src
  | "QCD" -> qcd_src
  | "MDG" -> mdg_src
  | "TRACK" -> track_src
  | "ADM" -> adm_src
  | other -> invalid_arg ("Suite.signature_sources: unknown benchmark " ^ other)

let signature_loops (p : Profile.t) =
  let sig_loops = Isched_frontend.Parser.parse ~name:p.Profile.name (signature_sources p) in
  List.iter Isched_frontend.Sema.check_exn sig_loops;
  sig_loops

let load ?(scale = 1) (p : Profile.t) =
  { profile = p; loops = signature_loops p @ Genloop.generate ~scale p }

let all () = List.map (fun p -> load p) Profile.all

(* --- corpus enumeration --- *)

let profiles () = Profile.all

let all_loops () = List.concat_map (fun b -> b.loops) (all ())

(* Name index for [find_loop]: built once under a lock on first use.
   The full unscaled corpus is small (the ablations materialize it
   wholesale anyway), so retaining it here is cheap, and the serving
   path needs lookups to cost a hash probe, not a corpus walk. *)
let index_lock = Mutex.create ()

let index : (string, Ast.loop) Hashtbl.t option ref = ref None

let find_loop name =
  let tbl =
    Mutex.protect index_lock (fun () ->
        match !index with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 256 in
          List.iter (fun (l : Ast.loop) -> Hashtbl.replace tbl l.Ast.name l) (all_loops ());
          index := Some tbl;
          tbl)
  in
  Hashtbl.find_opt tbl name

(* --- streaming --- *)

type chunk = { profile : Profile.t; lo : int; hi : int; with_signature : bool }

let chunks ?(chunk_size = 64) ~scale (p : Profile.t) =
  if scale < 1 then invalid_arg "Suite.chunks: scale must be >= 1";
  if chunk_size < 1 then invalid_arg "Suite.chunks: chunk_size must be >= 1";
  let total = p.Profile.n_generated * scale in
  let n_chunks = max 1 ((total + chunk_size - 1) / chunk_size) in
  List.init n_chunks (fun i ->
      { profile = p;
        lo = i * chunk_size;
        hi = min total ((i + 1) * chunk_size);
        with_signature = i = 0 })

let chunk_loops (c : chunk) =
  let sigs = if c.with_signature then signature_loops c.profile else [] in
  sigs @ Genloop.generate_range c.profile ~lo:c.lo ~hi:c.hi
