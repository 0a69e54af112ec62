(** The ground program as the kernel reads it.  {!Ordered.Gop.t} holds
    the CSR rows the kernel ({!Kernel}) walks, so there is nothing to
    compile: [t] is that type and {!compile} the identity.  Both exist
    only because servebench's traced run names them (it times a
    "compile" beside each part search); they go when servebench reads
    the serving path's own spans instead of re-running its layers. *)

type t = Ordered.Gop.t

val compile : Ordered.Gop.t -> t
(** The identity. *)
