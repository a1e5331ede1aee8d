module run(
  input clk,
  input rst,
  input [7:0] x,
  input [7:0] y,
  input [3:0] e,
  output [15:0] z_out,
  output [3:0] e_out
);
  (* shreg_extract = "no" *) reg [15:0] mul__mulXY;
  (* shreg_extract = "no" *) reg [7:0] addA__sumXY;
  (* shreg_extract = "no" *) reg [7:0] addA__x;
  (* shreg_extract = "no" *) reg [7:0] addB__sum2XY;
  (* shreg_extract = "no" *) reg [15:0] merged_mul_mul__mulXY;
  wire [7:0] merged_mul_mul__sum2XY;
  (* shreg_extract = "no" *) reg [15:0] xor__z;
  (* shreg_extract = "no" *) reg [3:0] xor__e;
  wire [15:0] mul__mulXY__c;
  wire [7:0] addA__sumXY__c;
  wire [7:0] addB__sum2XY__c;
  wire [15:0] xor__z__c;
  (* shreg_extract = "no" *) reg [15:0] xor__z__d1;
  (* shreg_extract = "no" *) reg [3:0] xor__e__d1;
  (* shreg_extract = "no" *) reg [3:0] xor__e__d2;
  (* shreg_extract = "no" *) reg [3:0] xor__e__d3;
  assign mul__mulXY__c = x * y;
  always @(posedge clk) begin
    if (rst) mul__mulXY <= 16'd0;
    else mul__mulXY <= mul__mulXY__c;
  end
  assign addA__sumXY__c = x + y;
  always @(posedge clk) begin
    if (rst) addA__sumXY <= 8'd0;
    else addA__sumXY <= addA__sumXY__c;
  end
  always @(posedge clk) begin
    if (rst) addA__x <= 8'd0;
    else addA__x <= x;
  end
  assign addB__sum2XY__c = addA__sumXY + addA__x;
  always @(posedge clk) begin
    if (rst) addB__sum2XY <= 8'd0;
    else addB__sum2XY <= addB__sum2XY__c;
  end
  always @(posedge clk) begin
    if (rst) merged_mul_mul__mulXY <= 16'd0;
    else merged_mul_mul__mulXY <= mul__mulXY;
  end
  assign merged_mul_mul__sum2XY = addB__sum2XY;
  assign xor__z__c = merged_mul_mul__sum2XY ^ merged_mul_mul__mulXY;
  always @(posedge clk) begin
    if (rst) xor__z__d1 <= 16'd0;
    else xor__z__d1 <= xor__z__c;
  end
  always @(posedge clk) begin
    if (rst) xor__z <= 16'd0;
    else xor__z <= xor__z__d1;
  end
  always @(posedge clk) begin
    if (rst) xor__e__d1 <= 4'd0;
    else xor__e__d1 <= e;
  end
  always @(posedge clk) begin
    if (rst) xor__e__d2 <= 4'd0;
    else xor__e__d2 <= xor__e__d1;
  end
  always @(posedge clk) begin
    if (rst) xor__e__d3 <= 4'd0;
    else xor__e__d3 <= xor__e__d2;
  end
  always @(posedge clk) begin
    if (rst) xor__e <= 4'd0;
    else xor__e <= xor__e__d3;
  end
  assign z_out = xor__z;
  assign e_out = xor__e;
endmodule
